//! The Fig. 4 baseline: multi-warp row partitioning with per-row barriers.
//!
//! This is the "generic parallelization" the paper argues against (§III):
//! all warps of a block cooperate on one DP row, so every row needs two
//! `__syncthreads()` — one after the dependency reads, one after the
//! in-place writes — plus more for the cross-warp `xE` reduction. The
//! cells at each warp boundary (yellow in Fig. 4) are read by one warp and
//! written by another; eliding the barriers makes that a data race, which
//! the simulator's hazard detector reports (scores stay correct here only
//! because the emulation serializes warps — real hardware gives no such
//! guarantee).
//!
//! Scores are bit-exact with the scalar filter, so the ablation bench (E6)
//! compares *schedules*, not algorithms.

use crate::layout::{SmemLayout, GM_OUT_BASE, GM_RES_BASE};
use crate::msv_warp::{
    stage_emission_table, zero_row, MsvHit, MSV_ALU_PER_ITER, MSV_ALU_PER_ROW, MSV_ALU_PER_SEQ,
};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_seqdb::{PackedView, RESIDUES_PER_WORD};
use h3w_simt::{lane_ids, BlockKernel, Lanes, SimtCtx, WARP_SIZE};

/// Fig. 4's MSV scheme as a [`BlockKernel`]: block ↦ sequence,
/// all warps ↦ one row.
pub struct NaiveMsvKernel<'a> {
    /// Quantized score system.
    pub om: &'a MsvProfile,
    /// Packed target database.
    pub db: PackedView<'a>,
    /// Shared-memory map (one DP row per *block* plus the staged table).
    pub layout: SmemLayout,
    /// Warps cooperating per block.
    pub warps_per_block: usize,
    /// Elide the per-row barriers — the unsafe variant whose races the
    /// hazard detector must catch.
    pub elide_barriers: bool,
}

impl<'a> NaiveMsvKernel<'a> {
    fn barrier(&self, ctx: &mut SimtCtx) {
        if !self.elide_barriers {
            ctx.barrier();
        }
    }

    fn stage_tables(&self, ctx: &mut SimtCtx) {
        ctx.warp_id = 0;
        stage_emission_table(ctx, self.om, self.layout.emis_base);
        // The staging barrier is structural and kept even in the unsafe
        // variant — Fig. 4's missing barriers are the per-row ones.
        ctx.barrier();
    }

    fn score_one(&self, ctx: &mut SimtCtx, seqid: usize) -> MsvHit {
        let om = self.om;
        let m = om.m;
        let chunks = m.div_ceil(WARP_SIZE);
        let w = self.warps_per_block;
        let len = self.db.lengths[seqid] as usize;
        let word_off = self.db.offsets[seqid] as usize;
        let lc = om.len_costs(len);
        ctx.alu(MSV_ALU_PER_SEQ);
        let ids = lane_ids();
        let row_base = self.layout.rows_base;

        // Warp 0 zeroes the row, then a barrier publishes it.
        ctx.warp_id = 0;
        zero_row(ctx, row_base, m);
        self.barrier(ctx);

        let mut xj = 0u8;
        let mut xb = om.base.saturating_sub(lc.tjbm);
        // Per-chunk register caches across the two phases.
        let mut deps = vec![Lanes::splat(0u8); chunks];
        let mut costs = vec![Lanes::splat(0u8); chunks];
        for i in 0..len {
            if i % RESIDUES_PER_WORD == 0 {
                ctx.warp_id = 0;
                ctx.gmem_access_uniform(GM_RES_BASE + (word_off + i / RESIDUES_PER_WORD) * 4, 4);
            }
            let x = self.db.residue(seqid, i);
            ctx.alu(MSV_ALU_PER_ROW);

            // Phase A: every warp reads its chunks' dependencies (cells
            // c·32+t) and emission costs.
            for c in 0..chunks {
                ctx.warp_id = (c % w) as u16;
                let active = ids.map(|t| c * WARP_SIZE + t < m);
                deps[c] = ctx.ld_smem(ids.map(|t| row_base + c * WARP_SIZE + t), active);
                let eaddr = ids.map(|t| {
                    self.layout.emis_base + x as usize * m + (c * WARP_SIZE + t).min(m - 1)
                });
                costs[c] = ctx.ld_smem(eaddr, active);
            }
            // Barrier #1: reads must complete before any in-place write.
            self.barrier(ctx);

            // Phase B: compute and write cells c·32+t+1 in place.
            let mut xev = Lanes::splat(0u8);
            for c in 0..chunks {
                ctx.warp_id = (c % w) as u16;
                let active = ids.map(|t| c * WARP_SIZE + t < m);
                ctx.alu(MSV_ALU_PER_ITER);
                let sv = deps[c]
                    .zip(Lanes::splat(xb), |a, b| a.max(b))
                    .map(|v| v.saturating_add(om.bias))
                    .zip(costs[c], |v, cst| v.saturating_sub(cst));
                let sv = Lanes::from_fn(|t| if active.lane(t) { sv.lane(t) } else { 0 });
                xev = xev.zip(sv, |a, b| a.max(b));
                let st = ids.map(|t| {
                    let k0 = c * WARP_SIZE + t;
                    row_base + if k0 < m { k0 + 1 } else { 0 }
                });
                ctx.st_smem(st, sv, active);
            }
            // Barrier #2: writes must complete before the next row's reads.
            self.barrier(ctx);

            // Cross-warp xE reduction: per-warp partials through shared
            // scratch, combined by warp 0 — two more barriers (the "further
            // synchronization calls" of §III).
            ctx.warp_id = 0;
            let xe = ctx.warp_reduce(xev, self.layout.scratch_base, Ord::max);
            self.barrier(ctx);
            ctx.alu(4);
            ctx.stats.rows += 1;
            if xe >= om.overflow_limit() {
                ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
                return MsvHit {
                    seqid: seqid as u32,
                    xj: 255,
                    overflow: true,
                    score: MsvProfile::overflow_score(),
                };
            }
            xj = xj.max(xe.saturating_sub(lc.tec));
            xb = om.base.max(xj).saturating_sub(lc.tjbm);
        }
        ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
        MsvHit {
            seqid: seqid as u32,
            xj,
            overflow: false,
            score: om.score_to_nats(xj, len),
        }
    }
}

impl<'a> BlockKernel for NaiveMsvKernel<'a> {
    type Out = Vec<MsvHit>;

    fn run_block(&self, ctx: &mut SimtCtx, block: usize, total_blocks: usize) -> Vec<MsvHit> {
        self.stage_tables(ctx);
        let mut out = Vec::new();
        let mut seqid = block;
        while seqid < self.db.n_seqs() {
            out.push(self.score_one(ctx, seqid));
            ctx.stats.sequences += 1;
            ctx.alu(2);
            seqid += total_blocks;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{smem_layout, MemConfig, Stage};
    use h3w_cpu::quantized::msv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;
    use h3w_simt::{run_grid_blocks, DeviceSpec, KernelConfig};

    fn setup(m: usize) -> (MsvProfile, h3w_seqdb::SeqDb, PackedDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 3, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let spec = DbGenSpec::envnr_like().scaled(0.000004); // ~26 seqs
        let db = generate(&spec, Some(&core), 8);
        (om, db.clone(), PackedDb::from_db(&db))
    }

    fn launch(
        om: &MsvProfile,
        packed: &PackedDb,
        elide: bool,
    ) -> (Vec<MsvHit>, h3w_simt::KernelStats) {
        let dev = DeviceSpec::tesla_k40();
        // One row per block — the naive layout uses warps_per_block=1 row.
        let layout = smem_layout(Stage::Msv, om.m, 1, MemConfig::Shared, &dev);
        let cfg = KernelConfig {
            warps_per_block: 4,
            blocks: 3,
            regs_per_thread: 32,
            smem_per_block: layout.total,
            track_hazards: true,
        };
        let kernel = NaiveMsvKernel {
            om,
            db: packed.view(),
            layout,
            warps_per_block: 4,
            elide_barriers: elide,
        };
        let r = run_grid_blocks(&dev, &cfg, &kernel).unwrap();
        let mut hits: Vec<MsvHit> = r.outputs.into_iter().flatten().collect();
        hits.sort_by_key(|h| h.seqid);
        (hits, r.stats)
    }

    #[test]
    fn naive_with_barriers_is_correct_and_race_free() {
        let (om, db, packed) = setup(100); // > 1 chunk per warp boundary
        let (hits, stats) = launch(&om, &packed, false);
        assert_eq!(hits.len(), db.len());
        for h in &hits {
            let e = msv_filter_scalar(&om, &db.seqs[h.seqid as usize].residues);
            assert_eq!((h.xj, h.overflow), (e.xj, e.overflow), "seq {}", h.seqid);
        }
        assert_eq!(stats.hazards, 0);
        // ≥ 3 barriers per processed row — the overhead Fig. 4 is about.
        assert!(
            stats.barriers >= 3 * stats.rows,
            "barriers {} rows {}",
            stats.barriers,
            stats.rows
        );
    }

    #[test]
    fn eliding_barriers_trips_the_race_detector() {
        let (om, _, packed) = setup(100);
        let (_, stats) = launch(&om, &packed, true);
        assert!(stats.hazards > 0, "expected warp-boundary races");
        // Only the structural staging barrier remains (1 per block).
        assert_eq!(stats.barriers, 3);
    }

    #[test]
    fn naive_barrier_budget_dwarfs_warp_synchronous() {
        use crate::layout::best_config;
        use crate::msv_warp::MsvWarpKernel;
        let (om, _, packed) = setup(64);
        let (naive_hits, naive_stats) = launch(&om, &packed, false);
        let dev = DeviceSpec::tesla_k40();
        let (mut cfg, _) = best_config(Stage::Msv, om.m, MemConfig::Shared, &dev).unwrap();
        cfg.blocks = 2;
        let layout = smem_layout(
            Stage::Msv,
            om.m,
            cfg.warps_per_block,
            MemConfig::Shared,
            &dev,
        );
        let kernel = MsvWarpKernel {
            om: &om,
            db: packed.view(),
            mem: MemConfig::Shared,
            layout,
        };
        let r = h3w_simt::run_grid(&dev, &cfg, &kernel).unwrap();
        let mut ws_hits: Vec<MsvHit> = r.outputs.into_iter().flatten().collect();
        ws_hits.sort_by_key(|h| h.seqid);
        // Same scores, wildly different synchronization budgets.
        assert_eq!(
            naive_hits.iter().map(|h| h.xj).collect::<Vec<_>>(),
            ws_hits.iter().map(|h| h.xj).collect::<Vec<_>>()
        );
        assert!(naive_stats.barriers > 100 * r.stats.barriers);
    }
}
