//! Warp-synchronous SSV kernel — the extension filter
//! ([`h3w_cpu::ssv`](../../h3w_cpu/ssv/index.html) documents the model) on
//! the paper's schedule, demonstrating the §III-C claim that the
//! three-tier warp-per-sequence framework "can be easily applied to other
//! data-independent … problems".
//!
//! Identical skeleton to the MSV kernel minus everything SSV doesn't
//! need: no per-row shuffle reduction, no `xJ`/`xB` update chain — one
//! butterfly reduction per *sequence*. The per-row issue-slot budget drops
//! accordingly (measured by `ext_ssv`), which is exactly why HMMER 3.1
//! put SSV in front of MSV.

use crate::feed::DirectFeed;
use crate::layout::{MemConfig, SmemLayout, GM_OUT_BASE};
use crate::msv_warp::{emission, preload, stage_emission_table, zero_row};
use crate::stage::{run_stage, WarpStage};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_seqdb::PackedView;
use h3w_simt::{lane_ids, Lanes, SimtCtx, WarpKernel, WARP_SIZE};

/// ALU instructions per stride-32 inner iteration (max, add, sub, running
/// max, addressing — one fewer than MSV: no `xE` tree).
pub const SSV_ALU_PER_ITER: u64 = 5;
/// ALU instructions per row outside the inner loop (residue decode and
/// overflow test only — no specials).
pub const SSV_ALU_PER_ROW: u64 = 4;
/// ALU instructions per sequence.
pub const SSV_ALU_PER_SEQ: u64 = 12;

/// One scored sequence (same shape as the MSV hit).
pub use crate::msv_warp::MsvHit as SsvHit;

/// The SSV kernel.
pub struct SsvWarpKernel<'a> {
    /// Quantized score system (shared with MSV).
    pub om: &'a MsvProfile,
    /// Packed target database.
    pub db: PackedView<'a>,
    /// Table placement.
    pub mem: MemConfig,
    /// Shared-memory region map (Stage::Msv layout — identical footprint).
    pub layout: SmemLayout,
}

impl<'a> SsvWarpKernel<'a> {
    fn score(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
    ) -> SsvHit {
        let om = self.om;
        let m = om.m;
        let iters = m.div_ceil(WARP_SIZE);
        let len = self.db.lengths[seqid] as usize;
        let lc = om.len_costs(len);
        feed.begin_seq(seqid);
        ctx.alu(SSV_ALU_PER_SEQ);
        let ids = lane_ids();

        zero_row(ctx, row_base, m);

        let xb = om.base.saturating_sub(lc.tjbm); // constant — the SSV point
        let xbv = Lanes::splat(xb);
        let overflow_at = om.overflow_limit();
        let mut xmaxv = Lanes::splat(0u8);
        let mut i = 0usize;
        while i < len {
            let x = feed.residue(ctx, i);
            ctx.alu(SSV_ALU_PER_ROW);
            let mut mpv = preload(ctx, row_base, 0, iters, m);
            for j in 0..iters {
                let pos_active = ids.map(|t| j * WARP_SIZE + t < m);
                let nxt = preload(ctx, row_base, j + 1, iters, m);
                let cost = emission(ctx, om, self.mem, self.layout.emis_base, x, j, pos_active);
                ctx.alu(SSV_ALU_PER_ITER);
                let sv = mpv
                    .zip(xbv, |a, b| a.max(b))
                    .map(|v| v.saturating_add(om.bias))
                    .zip(cost, |v, c| v.saturating_sub(c));
                let sv = Lanes::from_fn(|t| if pos_active.lane(t) { sv.lane(t) } else { 0 });
                xmaxv = xmaxv.zip(sv, |a, b| a.max(b));
                let st = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    row_base + if k0 < m { k0 + 1 } else { 0 }
                });
                ctx.st_smem(st, sv, pos_active);
                mpv = nxt;
            }
            ctx.stats.rows += 1;
            // Lane-local overflow test (no reduction needed: a warp vote
            // over the private registers suffices).
            let over = Lanes::from_fn(|t| xmaxv.lane(t) >= overflow_at);
            if ctx.vote_all(over.map(|b| !b)) {
                i += 1;
                continue;
            }
            ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
            return SsvHit {
                seqid: seqid as u32,
                xj: 255,
                overflow: true,
                score: MsvProfile::overflow_score(),
            };
        }
        // The single per-sequence reduction.
        let xmax = ctx.warp_max(xmaxv, self.layout.scratch_base);
        ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
        SsvHit {
            seqid: seqid as u32,
            xj: xmax,
            overflow: false,
            score: om.ssv_score_to_nats(xmax, len),
        }
    }
}

impl WarpStage for SsvWarpKernel<'_> {
    type Out = Vec<SsvHit>;

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
        out: &mut Vec<SsvHit>,
    ) {
        out.push(self.score(ctx, row_base, seqid, feed));
    }
}

impl WarpKernel for SsvWarpKernel<'_> {
    type Out = Vec<SsvHit>;

    fn run_warp(&self, ctx: &mut SimtCtx, global_warp: usize, total_warps: usize) -> Vec<SsvHit> {
        run_stage(self, ctx, global_warp, total_warps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{best_config, smem_layout, Stage};
    use crate::msv_warp::MsvWarpKernel;
    use h3w_cpu::ssv::ssv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;
    use h3w_simt::{run_grid, DeviceSpec};

    fn setup(m: usize) -> (MsvProfile, h3w_seqdb::SeqDb, PackedDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 51, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut spec = DbGenSpec::envnr_like().scaled(1.5e-5);
        spec.homolog_fraction = 0.04;
        let db = generate(&spec, Some(&core), 52);
        let packed = PackedDb::from_db(&db);
        (om, db, packed)
    }

    #[test]
    fn warp_ssv_is_bit_exact_with_scalar() {
        let dev = DeviceSpec::tesla_k40();
        for m in [20usize, 70] {
            let (om, db, packed) = setup(m);
            let (mut cfg, _) = best_config(Stage::Msv, m, MemConfig::Shared, &dev).unwrap();
            cfg.blocks = 3;
            cfg.track_hazards = true;
            let layout = smem_layout(Stage::Msv, m, cfg.warps_per_block, MemConfig::Shared, &dev);
            let kernel = SsvWarpKernel {
                om: &om,
                db: packed.view(),
                mem: MemConfig::Shared,
                layout,
            };
            let r = run_grid(&dev, &cfg, &kernel).unwrap();
            assert_eq!(r.stats.hazards, 0);
            assert_eq!(r.stats.smem_conflict_extra, 0);
            let mut hits: Vec<SsvHit> = r.outputs.into_iter().flatten().collect();
            hits.sort_by_key(|h| h.seqid);
            for h in &hits {
                let e = ssv_filter_scalar(&om, &db.seqs[h.seqid as usize].residues);
                assert_eq!(
                    (h.xj, h.overflow),
                    (e.xj, e.overflow),
                    "m={m} seq {}",
                    h.seqid
                );
            }
        }
    }

    #[test]
    fn ssv_kernel_is_cheaper_per_row_than_msv() {
        // The whole point of the extension: fewer shuffles and fewer issue
        // slots per processed row.
        let dev = DeviceSpec::tesla_k40();
        let (om, _, packed) = setup(60);
        let (mut cfg, _) = best_config(Stage::Msv, 60, MemConfig::Shared, &dev).unwrap();
        cfg.blocks = 2;
        let layout = smem_layout(Stage::Msv, 60, cfg.warps_per_block, MemConfig::Shared, &dev);
        let ssv = SsvWarpKernel {
            om: &om,
            db: packed.view(),
            mem: MemConfig::Shared,
            layout,
        };
        let msv = MsvWarpKernel {
            om: &om,
            db: packed.view(),
            mem: MemConfig::Shared,
            layout,
        };
        let rs = run_grid(&dev, &cfg, &ssv).unwrap();
        let rm = run_grid(&dev, &cfg, &msv).unwrap();
        // Same rows processed (no overflow truncation divergence allowed
        // to flip the comparison grossly on this workload).
        let ssv_per_row = rs.stats.issue_slots() as f64 / rs.stats.rows as f64;
        let msv_per_row = rm.stats.issue_slots() as f64 / rm.stats.rows as f64;
        assert!(
            ssv_per_row < 0.85 * msv_per_row,
            "ssv {ssv_per_row:.2} vs msv {msv_per_row:.2} slots/row"
        );
        assert!(rs.stats.shuffles < rm.stats.shuffles / 10);
    }
}
