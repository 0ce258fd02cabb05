//! The warp-synchronous MSV kernel — the paper's Algorithm 1.
//!
//! One warp scores one sequence; the warp sweeps each DP row in stride-32
//! chunks, keeping the row in its block's shared memory and exploiting
//! SIMT lockstep so that **no** `__syncthreads()` is ever needed:
//!
//! * **step ①** load this chunk's diagonal dependencies (previous row,
//!   cells `j·32+t`) — already in registers from the previous iteration's
//!   preload;
//! * **step ②** preload the *next* chunk's dependencies before anything is
//!   overwritten (register double-buffering, Fig. 5) — this is what
//!   protects the warp-boundary cell that the in-place store of step ③
//!   would clobber;
//! * **step ③** store the freshly computed cells `j·32+t+1` in place;
//! * **step ④** advance.
//!
//! The row maximum `xE` is reduced with the butterfly shuffle (Kepler) or
//! the shared-memory fallback (Fermi, §IV-A). Residues arrive packed six
//! to a 32-bit word (Fig. 6). Byte arithmetic is identical to the scalar
//! and striped CPU filters, so scores are **bit-exact** across all three.

use crate::feed::DirectFeed;
use crate::layout::{MemConfig, SmemLayout, GM_EMIS_BASE, GM_OUT_BASE};
use crate::stage::{run_stage, WarpStage};
use h3w_hmm::alphabet::PAD_CODE;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_seqdb::PackedView;
use h3w_simt::{lane_ids, Lanes, SimtCtx, WarpKernel, WARP_SIZE};

/// ALU instructions per stride-32 inner iteration (max, saturating
/// add/sub, running row max, address increment, loop bookkeeping).
pub const MSV_ALU_PER_ITER: u64 = 6;
/// ALU instructions per DP row outside the inner loop (residue decode,
/// overflow test, `xJ`/`xB` updates).
pub const MSV_ALU_PER_ROW: u64 = 8;
/// ALU instructions per sequence (id/striding math, length-model setup,
/// result conversion).
pub const MSV_ALU_PER_SEQ: u64 = 12;

/// One scored sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsvHit {
    /// Sequence index in the database.
    pub seqid: u32,
    /// Final `xJ` byte (255 on overflow).
    pub xj: u8,
    /// Overflow flag (score off-scale high; passes the filter).
    pub overflow: bool,
    /// Score in nats (+∞ on overflow).
    pub score: f32,
}

/// Algorithm 1 as a [`WarpKernel`].
pub struct MsvWarpKernel<'a> {
    /// Quantized score system.
    pub om: &'a MsvProfile,
    /// Packed target database.
    pub db: PackedView<'a>,
    /// Table placement (the §IV cache-aware switch).
    pub mem: MemConfig,
    /// Shared-memory region map for this launch.
    pub layout: SmemLayout,
}

/// Stage the `26 × M` emission-cost table into shared memory at
/// `emis_base` (done once per block by its first warp; counted as real
/// traffic).
pub(crate) fn stage_emission_table(ctx: &mut SimtCtx, om: &MsvProfile, emis_base: usize) {
    let m = om.m;
    let ids = lane_ids();
    for code in 0..crate::layout::STAGED_CODES as u8 {
        let row = om.cost_row(code);
        let mut base = 0usize;
        while base < m {
            let active = ids.map(|t| base + t < m);
            let gaddrs = ids.map(|t| GM_EMIS_BASE + code as usize * m + base + t);
            ctx.gmem_access(gaddrs, 1, active);
            let saddrs = ids.map(|t| emis_base + code as usize * m + base + t);
            let vals = Lanes::from_fn(|t| if base + t < m { row[base + t] } else { 0 });
            ctx.st_smem(saddrs, vals, active);
            ctx.alu(1);
            base += WARP_SIZE;
        }
    }
}

/// Zero the DP row at `row_base` (cell 0 is the permanent −∞ boundary).
pub(crate) fn zero_row(ctx: &mut SimtCtx, row_base: usize, m: usize) {
    let ids = lane_ids();
    let mut cell = 0usize;
    while cell <= m {
        let active = ids.map(|t| cell + t <= m);
        let addrs = ids.map(|t| row_base + cell + t);
        ctx.st_smem(addrs, Lanes::splat(0u8), active);
        cell += WARP_SIZE;
    }
}

/// Load the dependency cells of chunk `j` (cells `j·32 + t`).
fn preload(ctx: &mut SimtCtx, row_base: usize, j: usize, iters: usize, m: usize) -> Lanes<u8> {
    if j >= iters {
        return Lanes::splat(0);
    }
    let ids = lane_ids();
    let active = ids.map(|t| j * WARP_SIZE + t < m);
    let addrs = ids.map(|t| row_base + j * WARP_SIZE + t);
    ctx.ld_smem(addrs, active)
}

/// Emission cost vector for chunk `j` of residue `x`, from the staged
/// table at `emis_base` or from global memory.
fn emission(
    ctx: &mut SimtCtx,
    om: &MsvProfile,
    mem: MemConfig,
    emis_base: usize,
    x: u8,
    j: usize,
    active: Lanes<bool>,
) -> Lanes<u8> {
    let m = om.m;
    let ids = lane_ids();
    match mem {
        MemConfig::Shared => {
            // Inactive lanes never touch memory; their addresses are
            // don't-cares.
            let addrs = ids.map(|t| emis_base + x as usize * m + (j * WARP_SIZE + t).min(m - 1));
            ctx.ld_smem(addrs, active)
        }
        MemConfig::Global => {
            // The emission table is tens of KB: resident in L2.
            let addrs = ids.map(|t| GM_EMIS_BASE + x as usize * m + j * WARP_SIZE + t);
            ctx.gmem_access_cached(addrs, 1, active);
            let row = om.cost_row(x);
            Lanes::from_fn(|t| {
                let k0 = j * WARP_SIZE + t;
                if k0 < m {
                    row[k0]
                } else {
                    255
                }
            })
        }
    }
}

impl<'a> MsvWarpKernel<'a> {
    /// Score one sequence (the body of Algorithm 1's outer while loop),
    /// decoding its residues from the packed words `feed` fetches.
    fn score(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
    ) -> MsvHit {
        let om = self.om;
        let m = om.m;
        let iters = m.div_ceil(WARP_SIZE);
        let len = self.db.lengths[seqid] as usize;
        let lc = om.len_costs(len);
        feed.begin_seq(seqid);
        ctx.alu(MSV_ALU_PER_SEQ);
        let ids = lane_ids();

        zero_row(ctx, row_base, m);

        let mut xj = 0u8;
        let mut xb = om.base.saturating_sub(lc.tjbm);
        let mut i = 0usize;
        while i < len {
            // Packed residue fetch: one 32-bit word per 6 residues
            // (Fig. 6); decode is a shift+mask.
            let x = feed.residue(ctx, i);
            debug_assert_ne!(x, PAD_CODE, "pad inside sequence body");
            ctx.alu(MSV_ALU_PER_ROW);

            let mut xev = Lanes::splat(0u8);
            // Step ① for j = 0: dependencies are cells 0..32 of the
            // previous row (cell 0 = the permanent −∞ boundary; position
            // k0's dependency is cell k0, so the mask equals the position
            // mask).
            let mut mpv = preload(ctx, row_base, 0, iters, m);
            for j in 0..iters {
                let pos_active = ids.map(|t| j * WARP_SIZE + t < m);
                // Step ②: preload the next chunk's dependencies before the
                // in-place store below can clobber the boundary cell.
                let nxt = preload(ctx, row_base, j + 1, iters, m);
                // Emission costs for positions k0 = j·32 + t.
                let cost = emission(ctx, om, self.mem, self.layout.emis_base, x, j, pos_active);
                // sv = max(mpv, xB) ⊕ bias ⊖ cost (inactive lanes stay 0).
                ctx.alu(MSV_ALU_PER_ITER);
                let xbv = Lanes::splat(xb);
                let sv = mpv
                    .zip(xbv, |a, b| a.max(b))
                    .map(|v| v.saturating_add(om.bias))
                    .zip(cost, |v, c| v.saturating_sub(c));
                let sv = Lanes::from_fn(|t| if pos_active.lane(t) { sv.lane(t) } else { 0 });
                xev = xev.zip(sv, |a, b| a.max(b));
                // Step ③: in-place store of cells k0 + 1.
                let st_addrs = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    row_base + if k0 < m { k0 + 1 } else { 0 }
                });
                ctx.st_smem(st_addrs, sv, pos_active);
                // Step ④: advance the double buffer.
                mpv = nxt;
            }
            let xe = ctx.warp_reduce(xev, self.layout.scratch_base, Ord::max);
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
            i += 1;
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

impl WarpStage for MsvWarpKernel<'_> {
    type Out = Vec<MsvHit>;

    fn db(&self) -> PackedView<'_> {
        self.db
    }

    fn layout(&self) -> &SmemLayout {
        &self.layout
    }

    fn stage_tables_if_shared(&self, ctx: &mut SimtCtx) -> bool {
        let shared = self.mem == MemConfig::Shared;
        if shared {
            stage_emission_table(ctx, self.om, self.layout.emis_base);
        }
        shared
    }

    fn score_one(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
        out: &mut Vec<MsvHit>,
    ) {
        out.push(self.score(ctx, row_base, seqid, feed));
    }
}

impl WarpKernel for MsvWarpKernel<'_> {
    type Out = Vec<MsvHit>;

    fn run_warp(&self, ctx: &mut SimtCtx, global_warp: usize, total_warps: usize) -> Vec<MsvHit> {
        run_stage(self, ctx, global_warp, total_warps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{best_config, smem_layout, Stage};
    use h3w_cpu::quantized::msv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;
    use h3w_simt::{run_grid, DeviceSpec};

    fn setup(m: usize, n_seqs_frac: f64) -> (MsvProfile, h3w_seqdb::SeqDb, PackedDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 99, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut spec = DbGenSpec::envnr_like().scaled(n_seqs_frac);
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&core), 31);
        let packed = PackedDb::from_db(&db);
        (om, db, packed)
    }

    fn launch(
        om: &MsvProfile,
        packed: &PackedDb,
        mem: MemConfig,
        dev: &DeviceSpec,
    ) -> (Vec<MsvHit>, h3w_simt::KernelStats) {
        let (mut cfg, _) = best_config(Stage::Msv, om.m, mem, dev).expect("config fits");
        cfg.blocks = 4;
        cfg.track_hazards = true;
        let layout = smem_layout(Stage::Msv, om.m, cfg.warps_per_block, mem, dev);
        let kernel = MsvWarpKernel {
            om,
            db: packed.view(),
            mem,
            layout,
        };
        let r = run_grid(dev, &cfg, &kernel).unwrap();
        let mut hits: Vec<MsvHit> = r.outputs.into_iter().flatten().collect();
        hits.sort_by_key(|h| h.seqid);
        (hits, r.stats)
    }

    #[test]
    fn bit_exact_vs_scalar_shared_config() {
        let dev = DeviceSpec::tesla_k40();
        for m in [5usize, 33, 70] {
            let (om, db, packed) = setup(m, 0.00002); // ~130 seqs
            let (hits, stats) = launch(&om, &packed, MemConfig::Shared, &dev);
            assert_eq!(hits.len(), db.len());
            for hit in &hits {
                let expect = msv_filter_scalar(&om, &db.seqs[hit.seqid as usize].residues);
                assert_eq!(
                    (hit.xj, hit.overflow),
                    (expect.xj, expect.overflow),
                    "m={m} seq {}",
                    hit.seqid
                );
            }
            // The headline structural claims (§III-A): no hazards, no bank
            // conflicts, and barriers bounded by the per-block table
            // publish (1 per block) — i.e. zero per-row synchronization.
            assert_eq!(stats.hazards, 0);
            assert_eq!(stats.smem_conflict_extra, 0);
            assert_eq!(stats.barriers, 4); // one per block, rows ≫ 4
            assert!(stats.rows > 100 * stats.barriers);
        }
    }

    #[test]
    fn bit_exact_vs_scalar_global_config() {
        let dev = DeviceSpec::tesla_k40();
        let (om, db, packed) = setup(120, 0.00001);
        let (hits, stats) = launch(&om, &packed, MemConfig::Global, &dev);
        for hit in &hits {
            let expect = msv_filter_scalar(&om, &db.seqs[hit.seqid as usize].residues);
            assert_eq!((hit.xj, hit.overflow), (expect.xj, expect.overflow));
        }
        // Global config serves table traffic from L2 (the table is
        // resident there), at least one transaction per row chunk.
        assert!(stats.l2_transactions >= db.total_residues());
        assert_eq!(stats.smem_conflict_extra, 0);
    }

    #[test]
    fn bit_exact_on_fermi_smem_reduction_path() {
        let dev = DeviceSpec::gtx_580();
        let (om, db, packed) = setup(64, 0.00001);
        let (hits, stats) = launch(&om, &packed, MemConfig::Shared, &dev);
        for hit in &hits {
            let expect = msv_filter_scalar(&om, &db.seqs[hit.seqid as usize].residues);
            assert_eq!((hit.xj, hit.overflow), (expect.xj, expect.overflow));
        }
        assert_eq!(stats.shuffles, 0, "Fermi has no shfl");
        assert_eq!(stats.hazards, 0);
    }

    #[test]
    fn every_sequence_scored_exactly_once() {
        let dev = DeviceSpec::tesla_k40();
        let (om, db, packed) = setup(20, 0.00003);
        let (hits, stats) = launch(&om, &packed, MemConfig::Shared, &dev);
        assert_eq!(hits.len(), db.len());
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.seqid as usize, i);
        }
        assert_eq!(stats.sequences, db.len() as u64);
        // Overflowed sequences terminate their row loop early.
        assert!(stats.rows <= db.total_residues());
    }

    #[test]
    fn shuffle_reduction_count_matches_rows() {
        let dev = DeviceSpec::tesla_k40();
        let (om, _, packed) = setup(20, 0.00001);
        let (_, stats) = launch(&om, &packed, MemConfig::Shared, &dev);
        assert_eq!(stats.shuffles, 5 * stats.rows);
    }
}
