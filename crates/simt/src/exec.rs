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
use crate::lanes::{lane_ids, Lanes};
use crate::smem::{SharedMem, SmemElem};
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

/// Shared-memory bytes one warp's reduction scratch takes on a device
/// without `shfl` (Fermi, §IV-A), for elements `width` bytes wide: 32
/// lanes, at least `i16` wide, so the two filters (`u8` MSV, `i16`
/// Viterbi) share one 64-byte slice and Forward's `f32` total takes 128.
pub const fn fermi_scratch_per_warp(width: usize) -> usize {
    WARP_SIZE * if width > 2 { width } else { 2 }
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
    /// The device has warp shuffles ([`DeviceSpec::has_shfl`]); decides
    /// how [`SimtCtx::warp_reduce`] reduces and
    /// [`SimtCtx::warp_exchanges`] exchanges.
    has_shfl: bool,
}

impl SimtCtx {
    /// Fresh context for one block on `dev`.
    pub fn new(dev: &DeviceSpec, smem_bytes: usize, track_hazards: bool) -> SimtCtx {
        SimtCtx {
            smem: SharedMem::new(smem_bytes, track_hazards),
            stats: KernelStats::default(),
            warp_id: 0,
            has_shfl: dev.has_shfl,
        }
    }

    /// Account `n` plain warp instructions (ALU / address / control).
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.stats.instructions += n;
    }

    /// Shared-memory load of `T` at per-lane byte addresses.
    #[inline]
    pub fn ld_smem<T: SmemElem>(&mut self, addrs: Lanes<usize>, active: Lanes<bool>) -> Lanes<T> {
        let (v, cost) = self.smem.ld(addrs, active, self.warp_id);
        self.stats.smem_loads += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
        v
    }

    /// Shared-memory store of `T` at per-lane byte addresses.
    #[inline]
    pub fn st_smem<T: SmemElem>(
        &mut self,
        addrs: Lanes<usize>,
        vals: Lanes<T>,
        active: Lanes<bool>,
    ) {
        let cost = self.smem.st(addrs, vals, active, self.warp_id);
        self.stats.smem_stores += 1;
        self.stats.smem_conflict_extra += cost.transactions.saturating_sub(1) as u64;
    }

    /// Butterfly reduction via `shfl_xor` under `combine` (max for the
    /// filters' row maximum, log-sum for the Forward row total): 5
    /// exchange steps, after which every lane holds the result — the
    /// "automatic broadcast" §III-A relies on for the next residue's
    /// `xB`. Counts 5 shuffles + 5 instructions.
    pub fn shfl_reduce<T: Copy + Default>(
        &mut self,
        mut v: Lanes<T>,
        mut combine: impl FnMut(T, T) -> T,
    ) -> T {
        self.stats.shuffles += 5;
        self.stats.instructions += 5;
        let mut mask = WARP_SIZE / 2;
        while mask >= 1 {
            v = v.zip(v.shfl_xor(mask), &mut combine);
            mask /= 2;
        }
        v.lane(0)
    }

    /// Warp-wide reduction under `combine`, made the way the device can:
    /// the butterfly shuffle on Kepler, or through this warp's
    /// [`fermi_scratch_per_warp`] slice of the block's scratch at
    /// `scratch_base` on Fermi, which has no `shfl` (§IV-A). Lane 0 sees
    /// the same pairings either way, so a non-associative `combine` (the
    /// Forward log-sum) gives the same bits on both devices.
    pub fn warp_reduce<T: SmemElem>(
        &mut self,
        v: Lanes<T>,
        scratch_base: usize,
        combine: impl FnMut(T, T) -> T,
    ) -> T {
        if self.has_shfl {
            self.shfl_reduce(v, combine)
        } else {
            let slice = fermi_scratch_per_warp(T::WIDTH);
            self.smem_reduce(v, scratch_base + self.warp_id as usize * slice, combine)
        }
    }

    /// Account `n` lane exchanges whose values the kernel computes
    /// itself (Forward's D-chain scan): a shuffle each on Kepler, a
    /// store + load pair through the warp's scratch each on Fermi.
    pub fn warp_exchanges(&mut self, n: u64) {
        if self.has_shfl {
            self.stats.shuffles += n;
        } else {
            self.stats.smem_stores += n;
            self.stats.smem_loads += n;
        }
    }

    /// Reduction through shared memory at `scratch` (32 lanes of `T`). No
    /// barrier is required within a single warp, but each of the 5
    /// halving steps is a store + load pair — the §IV-A cost difference
    /// vs. Kepler's shuffle.
    fn smem_reduce<T: SmemElem>(
        &mut self,
        v: Lanes<T>,
        scratch: usize,
        mut combine: impl FnMut(T, T) -> T,
    ) -> T {
        let ids = lane_ids();
        let addrs = ids.map(|i| scratch + T::WIDTH * i);
        let mut cur = v;
        let mut width = WARP_SIZE / 2;
        while width >= 1 {
            self.st_smem(addrs, cur, Lanes::splat(true));
            let partner = ids.map(|i| scratch + T::WIDTH * ((i + width) % WARP_SIZE));
            let other = self.ld_smem(partner, Lanes::splat(true));
            cur = cur.zip(other, &mut combine);
            self.alu(1);
            width /= 2;
        }
        cur.lane(0)
    }

    /// 128 B segments touched by a warp-wide access of `width`-byte
    /// elements at per-lane byte addresses (the coalescing rule).
    fn segments(addrs: Lanes<usize>, width: usize, active: Lanes<bool>) -> u64 {
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
        n as u64
    }

    /// Account a warp-wide global-memory access: `width`-byte elements at
    /// per-lane byte addresses, one DRAM transaction per segment touched;
    /// data itself is read by the kernel from host slices.
    pub fn gmem_access(&mut self, addrs: Lanes<usize>, width: usize, active: Lanes<bool>) {
        let n = Self::segments(addrs, width, active);
        self.stats.instructions += 1; // the LD/ST instruction itself
        self.stats.gmem_transactions += n;
        self.stats.gmem_bytes += n * GMEM_SEGMENT as u64;
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
        let n = Self::segments(addrs, width, active);
        self.stats.instructions += 1;
        self.stats.l2_transactions += n;
        self.stats.l2_bytes += n * GMEM_SEGMENT as u64;
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
            let mut ctx = SimtCtx::new(dev, cfg.smem_per_block, cfg.track_hazards);
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
            let mut ctx = SimtCtx::new(dev, cfg.smem_per_block, cfg.track_hazards);
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
            ctx.st_smem(addrs, vals, Lanes::splat(true));
            let back = ctx.ld_smem::<u8>(addrs, Lanes::splat(true));
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
            ctx.st_smem(Lanes::splat(5), Lanes::splat(1u8), Lanes::splat(true));
            ctx.warp_id = 1;
            let _ = ctx.ld_smem::<u8>(Lanes::splat(5), Lanes::splat(true));
        }
    }

    struct SafeBlock;
    impl BlockKernel for SafeBlock {
        type Out = ();
        fn run_block(&self, ctx: &mut SimtCtx, _b: usize, _n: usize) {
            ctx.warp_id = 0;
            ctx.st_smem(Lanes::splat(5), Lanes::splat(1u8), Lanes::splat(true));
            ctx.barrier();
            ctx.warp_id = 1;
            let _ = ctx.ld_smem::<u8>(Lanes::splat(5), Lanes::splat(true));
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

    /// A one-warp context on `dev` with room for four warps' scratch.
    fn ctx_on(dev: &DeviceSpec) -> SimtCtx {
        SimtCtx::new(dev, 4 * fermi_scratch_per_warp(4), true)
    }

    /// Reduce `v` under `combine` on both devices: the same value, and
    /// shuffles on Kepler against 5 conflict-free store/load pairs on Fermi.
    fn warp_reduce_on_both_devices<T: SmemElem + PartialEq + std::fmt::Debug>(
        v: Lanes<T>,
        combine: impl Fn(T, T) -> T + Copy,
    ) -> T {
        let mut kepler = ctx_on(&DeviceSpec::tesla_k40());
        let want = kepler.warp_reduce(v, usize::MAX, combine);
        assert_eq!(kepler.stats.shuffles, 5);
        assert_eq!(kepler.stats.instructions, 5);
        assert_eq!(kepler.stats.smem_loads + kepler.stats.smem_stores, 0);
        let mut fermi = ctx_on(&DeviceSpec::gtx_580());
        assert_eq!(fermi.warp_reduce(v, 0, combine), want);
        assert_eq!(fermi.stats.shuffles, 0);
        assert_eq!(fermi.stats.instructions, 5);
        assert_eq!(fermi.stats.smem_stores, 5);
        assert_eq!(fermi.stats.smem_loads, 5);
        assert_eq!(fermi.stats.smem_conflict_extra, 0);
        want
    }

    #[test]
    fn warp_reduce_agrees_on_both_devices_and_counts() {
        let max_of = |v: Lanes<u8>| warp_reduce_on_both_devices(v, Ord::max);
        assert_eq!(max_of(Lanes::from_fn(|i| ((i * 37) % 61) as u8)), 60);
        let v = Lanes::from_fn(|i| ((i * 13) % 29) as i16 - 14);
        assert_eq!(warp_reduce_on_both_devices(v, Ord::max), 14);
        let mut neg_inf = Lanes::splat(i16::MIN);
        neg_inf.set_lane(17, -5);
        assert_eq!(warp_reduce_on_both_devices(neg_inf, Ord::max), -5);
        // A float sum, whose bits depend on the pairing: both devices pair
        // lane 0's operands alike.
        let v = Lanes::from_fn(|i| 1.0f32 / (i as f32 + 3.0));
        let sum = warp_reduce_on_both_devices(v, |a, b| a + b);
        assert!((sum - v.0.iter().sum::<f32>()).abs() < 1e-5);
    }

    #[test]
    fn fermi_warps_reduce_in_their_own_scratch() {
        // Four warps reducing in one barrier epoch do not race: each gets
        // its own slice of the block's scratch, at the filters' width and
        // at Forward's.
        let mut ctx = ctx_on(&DeviceSpec::gtx_580());
        for w in 0..4u16 {
            ctx.warp_id = w;
            let v = Lanes::from_fn(|i| (i as i16) * (w as i16 + 1));
            assert_eq!(ctx.warp_reduce(v, 0, Ord::max), 31 * (w as i16 + 1));
        }
        ctx.finish_block();
        assert_eq!(ctx.stats.hazards, 0);
        let mut ctx = ctx_on(&DeviceSpec::gtx_580());
        for w in 0..4u16 {
            ctx.warp_id = w;
            let v = Lanes::from_fn(|i| (i as f32) * (w as f32 + 1.0));
            assert_eq!(ctx.warp_reduce(v, 0, f32::max), 31.0 * (w as f32 + 1.0));
        }
        ctx.finish_block();
        assert_eq!(ctx.stats.hazards, 0);
    }

    #[test]
    fn exchanges_are_shuffles_on_kepler_and_scratch_pairs_on_fermi() {
        let mut kepler = ctx_on(&DeviceSpec::tesla_k40());
        kepler.warp_exchanges(10);
        assert_eq!(kepler.stats.shuffles, 10);
        assert_eq!(kepler.stats.smem_loads + kepler.stats.smem_stores, 0);
        let mut fermi = ctx_on(&DeviceSpec::gtx_580());
        fermi.warp_exchanges(10);
        assert_eq!(fermi.stats.shuffles, 0);
        assert_eq!((fermi.stats.smem_stores, fermi.stats.smem_loads), (10, 10));
    }

    #[test]
    fn gmem_coalescing_counts_segments() {
        let mut ctx = SimtCtx::new(&DeviceSpec::tesla_k40(), 0, false);
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
        let mut ctx = SimtCtx::new(&DeviceSpec::tesla_k40(), 512, false);
        let addrs = lane_ids().map(|i| i * 4);
        let vals = Lanes::from_fn(|i| i as f32 * -1.5);
        ctx.st_smem(addrs, vals, Lanes::splat(true));
        let back = ctx.ld_smem::<f32>(addrs, Lanes::splat(true));
        assert_eq!(back, vals);
        // 32 consecutive f32 = one word per bank: conflict-free.
        assert_eq!(ctx.stats.smem_conflict_extra, 0);
        assert_eq!(ctx.stats.smem_loads, 1);
        assert_eq!(ctx.stats.smem_stores, 1);
    }

    #[test]
    fn shfl_reduce_with_custom_combine() {
        let mut ctx = SimtCtx::new(&DeviceSpec::tesla_k40(), 0, false);
        let v = Lanes::from_fn(|i| (i as f32) - 15.5);
        let max = ctx.shfl_reduce(v, f32::max);
        assert_eq!(max, 15.5); // lane 31 holds 31 − 15.5
        let sum = ctx.shfl_reduce(Lanes::splat(1.0f32), |a, b| a + b);
        assert_eq!(sum, 32.0);
        assert_eq!(ctx.stats.shuffles, 10);
    }

    #[test]
    fn cached_access_counts_l2_not_dram() {
        let mut ctx = SimtCtx::new(&DeviceSpec::tesla_k40(), 0, false);
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
        let mut ctx = SimtCtx::new(&DeviceSpec::tesla_k40(), 0, false);
        ctx.gmem_access_uniform(1000, 4);
        assert_eq!(ctx.stats.gmem_transactions, 1);
        assert_eq!(ctx.stats.gmem_bytes, 128);
    }
}
