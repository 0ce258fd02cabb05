//! The warp-synchronous P7Viterbi kernel — the paper's Algorithm 2, with
//! the parallel Lazy-F procedure of Fig. 7.
//!
//! Same skeleton as the MSV kernel (warp ↦ sequence, stride-32 row sweep,
//! register double-buffering, shuffle/shared reductions) plus the Plan-7
//! complications: three DP rows (M/I/D) of 16-bit cells in shared memory,
//! seven per-position transition tables, and the within-row D→D chain.
//!
//! **Parallel Lazy-F** (Fig. 7): the main pass seeds `D_k` with the M→D
//! path only. Then, chunk by chunk left-to-right, the warp repeatedly
//! computes all 32 D→D candidates from the *current* shared-memory D
//! values and re-checks with a warp vote `__all` until no position
//! improves; because D→D only flows rightward, one left-to-right chunk
//! sweep reaches the exact fixed point, bit-identical to the in-order
//! scalar propagation. Rows whose `Dmax` reduction is −∞ skip the
//! procedure entirely (most rows, which is the point of the heuristic).
//! §VI's prefix-scan alternative is [`crate::dd_prefix`], measured
//! against Lazy-F in E8.

use crate::feed::DirectFeed;
use crate::layout::{MemConfig, SmemLayout, GM_EMIS_BASE, GM_OUT_BASE, GM_TRANS_BASE};
use crate::stage::{run_stage, WarpStage};
use h3w_hmm::vitprofile::{wadd, VitProfile, W_NEG_INF};
use h3w_seqdb::PackedView;
use h3w_simt::{lane_ids, Lanes, SimtCtx, WarpKernel, WARP_SIZE};

/// ALU instructions per stride-32 inner iteration (4 saturating adds + 3
/// max for M, 2 adds + 1 max for I, 1 add for the D seed, addressing,
/// loop bookkeeping).
pub const VIT_ALU_PER_ITER: u64 = 14;
/// ALU instructions per row outside the inner loop (residue decode,
/// special-state updates).
pub const VIT_ALU_PER_ROW: u64 = 12;
/// ALU instructions per sequence (striding, length model, result write).
pub const VIT_ALU_PER_SEQ: u64 = 14;
/// ALU instructions per Lazy-F inner iteration (add + compare + mask).
pub const VIT_ALU_PER_LAZY_ITER: u64 = 3;

/// Transition-table indices inside the staged/global transition block.
const T_MM: usize = 0;
const T_IM: usize = 1;
const T_DM: usize = 2;
const T_MD: usize = 3;
const T_DD: usize = 4;
const T_MI: usize = 5;
const T_II: usize = 6;
const T_BMK: usize = 7;

/// One scored sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VitHit {
    /// Sequence index in the database.
    pub seqid: u32,
    /// Final `xC` word.
    pub xc: i16,
    /// Score in nats.
    pub score: f32,
}

/// Lazy-F effort counters (the §III-B/§VI measurables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpLazyStats {
    /// Rows processed.
    pub rows: u64,
    /// Rows that skipped Lazy-F entirely (`Dmax = −∞`).
    pub rows_skipped: u64,
    /// Chunk visits (outer loop of Fig. 7).
    pub chunks: u64,
    /// Inner iterations summed over all chunks.
    pub inner_iters: u64,
}

impl WarpLazyStats {
    /// Merge another warp's counters.
    pub fn merge(&mut self, o: &WarpLazyStats) {
        self.rows += o.rows;
        self.rows_skipped += o.rows_skipped;
        self.chunks += o.chunks;
        self.inner_iters += o.inner_iters;
    }
}

/// Algorithm 2 as a [`WarpKernel`].
pub struct VitWarpKernel<'a> {
    /// Quantized score system.
    pub om: &'a VitProfile,
    /// Packed target database.
    pub db: PackedView<'a>,
    /// Table placement.
    pub mem: MemConfig,
    /// Shared-memory region map.
    pub layout: SmemLayout,
}

impl<'a> VitWarpKernel<'a> {
    /// Transition table `idx`, one of the `T_*` constants.
    fn trans_table(&self, idx: usize) -> &[i16] {
        let om = self.om;
        // In `T_*` order: T_MM, T_IM, T_DM, T_MD, T_DD, T_MI, T_II, T_BMK.
        let tables: [&[i16]; 8] = [
            &om.tmm_in,
            &om.tim_in,
            &om.tdm_in,
            &om.tmd_in,
            &om.tdd_in,
            &om.tmi_self,
            &om.tii_self,
            &om.bmk_in,
        ];
        tables[idx]
    }

    /// Stage emission + transition tables into shared memory.
    fn stage_tables(&self, ctx: &mut SimtCtx) {
        let m = self.om.m;
        let ids = lane_ids();
        let stage_row = |ctx: &mut SimtCtx, gbase: usize, sbase: usize, row: &[i16]| {
            let mut base = 0usize;
            while base < m {
                let active = ids.map(|t| base + t < m);
                ctx.gmem_access(ids.map(|t| gbase + (base + t) * 2), 2, active);
                let saddrs = ids.map(|t| sbase + (base + t) * 2);
                let vals = Lanes::from_fn(|t| {
                    if base + t < m {
                        row[base + t]
                    } else {
                        W_NEG_INF
                    }
                });
                ctx.st_smem(saddrs, vals, active);
                ctx.alu(1);
                base += WARP_SIZE;
            }
        };
        for code in 0..crate::layout::STAGED_CODES as u8 {
            stage_row(
                ctx,
                GM_EMIS_BASE + code as usize * m * 2,
                self.layout.emis_base + code as usize * m * 2,
                self.om.emis_row(code),
            );
        }
        for tab in 0..8 {
            stage_row(
                ctx,
                GM_TRANS_BASE + tab * m * 2,
                self.layout.trans_base + tab * m * 2,
                self.trans_table(tab),
            );
        }
    }

    /// Read one table chunk (shared or global config) for positions
    /// `k0 = j·32 + t`.
    #[allow(clippy::too_many_arguments)]
    fn table_chunk(
        &self,
        ctx: &mut SimtCtx,
        table: &[i16],
        smem_region: usize,
        smem_off: usize,
        gmem_base: usize,
        j: usize,
        active: Lanes<bool>,
    ) -> Lanes<i16> {
        let m = self.om.m;
        let ids = lane_ids();
        match self.mem {
            MemConfig::Shared => {
                // `smem_region` is usize::MAX in the global config and is
                // only dereferenced here.
                let base = smem_region + smem_off;
                let addrs = ids.map(|t| base + (j * WARP_SIZE + t).min(m - 1) * 2);
                ctx.ld_smem(addrs, active)
            }
            MemConfig::Global => {
                // Emission/transition tables are L2-resident.
                let addrs = ids.map(|t| gmem_base + (j * WARP_SIZE + t) * 2);
                ctx.gmem_access_cached(addrs, 2, active);
                Lanes::from_fn(|t| {
                    let k0 = j * WARP_SIZE + t;
                    if k0 < m {
                        table[k0]
                    } else {
                        W_NEG_INF
                    }
                })
            }
        }
    }

    fn emis_chunk(&self, ctx: &mut SimtCtx, x: u8, j: usize, active: Lanes<bool>) -> Lanes<i16> {
        let m = self.om.m;
        self.table_chunk(
            ctx,
            self.om.emis_row(x),
            self.layout.emis_base,
            x as usize * m * 2,
            GM_EMIS_BASE + x as usize * m * 2,
            j,
            active,
        )
    }

    fn trans_chunk(
        &self,
        ctx: &mut SimtCtx,
        tab: usize,
        j: usize,
        active: Lanes<bool>,
    ) -> Lanes<i16> {
        let m = self.om.m;
        self.table_chunk(
            ctx,
            self.trans_table(tab),
            self.layout.trans_base,
            tab * m * 2,
            GM_TRANS_BASE + tab * m * 2,
            j,
            active,
        )
    }

    /// Load previous-row cells `j·32 + t` of the row at `off`.
    fn preload_row(
        &self,
        ctx: &mut SimtCtx,
        off: usize,
        j: usize,
        iters: usize,
        m: usize,
    ) -> Lanes<i16> {
        if j >= iters {
            return Lanes::splat(W_NEG_INF);
        }
        let ids = lane_ids();
        let active = ids.map(|t| j * WARP_SIZE + t < m);
        let addrs = ids.map(|t| off + (j * WARP_SIZE + t) * 2);
        ctx.ld_smem(addrs, active)
    }

    /// Fill cells `0..=m` of one row with −∞.
    fn clear_row(&self, ctx: &mut SimtCtx, off: usize, m: usize) {
        let ids = lane_ids();
        let mut cell = 0usize;
        while cell <= m {
            let active = ids.map(|t| cell + t <= m);
            let addrs = ids.map(|t| off + (cell + t) * 2);
            ctx.st_smem(addrs, Lanes::splat(W_NEG_INF), active);
            cell += WARP_SIZE;
        }
    }

    /// Score one sequence.
    fn score(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        lazy: &mut WarpLazyStats,
        feed: &mut DirectFeed<'_>,
    ) -> VitHit {
        let om = self.om;
        let m = om.m;
        let iters = m.div_ceil(WARP_SIZE);
        let len = self.db.lengths[seqid] as usize;
        let ls = om.len_scores(len);
        feed.begin_seq(seqid);
        ctx.alu(VIT_ALU_PER_SEQ);
        let ids = lane_ids();
        let ninf = Lanes::splat(W_NEG_INF);

        let m_off = row_base;
        let i_off = row_base + (m + 1) * 2;
        let d_off = row_base + 2 * (m + 1) * 2;
        self.clear_row(ctx, m_off, m);
        self.clear_row(ctx, i_off, m);
        self.clear_row(ctx, d_off, m);

        let mut xn = om.base;
        let mut xj = W_NEG_INF;
        let mut xc = W_NEG_INF;
        let mut xb = wadd(xn, ls.move_w);

        for i in 0..len {
            let x = feed.residue(ctx, i);
            ctx.alu(VIT_ALU_PER_ROW);

            let mut xev = ninf;
            let mut dmaxv = ninf;
            let xbv = Lanes::splat(xb);
            // Step ①: previous-row dependencies at cells k0 (= k−1).
            let mut mpv = self.preload_row(ctx, m_off, 0, iters, m);
            let mut ipv = self.preload_row(ctx, i_off, 0, iters, m);
            let mut dpv = self.preload_row(ctx, d_off, 0, iters, m);
            for j in 0..iters {
                let pos_active = ids.map(|t| j * WARP_SIZE + t < m);
                // Step ②: double-buffer the next chunk before overwriting.
                let mpv_n = self.preload_row(ctx, m_off, j + 1, iters, m);
                let ipv_n = self.preload_row(ctx, i_off, j + 1, iters, m);
                let dpv_n = self.preload_row(ctx, d_off, j + 1, iters, m);
                // Previous-row values at the *own* cell k = k0+1 (for I).
                let old_addrs = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    (if k0 < m { k0 + 1 } else { 0 }) * 2
                });
                let old_m = ctx.ld_smem(old_addrs.map(|a| m_off + a), pos_active);
                let old_i = ctx.ld_smem(old_addrs.map(|a| i_off + a), pos_active);

                let emis = self.emis_chunk(ctx, x, j, pos_active);
                let tmm = self.trans_chunk(ctx, T_MM, j, pos_active);
                let tim = self.trans_chunk(ctx, T_IM, j, pos_active);
                let tdm = self.trans_chunk(ctx, T_DM, j, pos_active);
                let bmk = self.trans_chunk(ctx, T_BMK, j, pos_active);
                let tmi = self.trans_chunk(ctx, T_MI, j, pos_active);
                let tii = self.trans_chunk(ctx, T_II, j, pos_active);
                let tmd = self.trans_chunk(ctx, T_MD, j, pos_active);

                ctx.alu(VIT_ALU_PER_ITER);
                let mut sv = xbv.zip(bmk, wadd);
                sv = sv.zip(mpv.zip(tmm, wadd), |a, b| a.max(b));
                sv = sv.zip(ipv.zip(tim, wadd), |a, b| a.max(b));
                sv = sv.zip(dpv.zip(tdm, wadd), |a, b| a.max(b));
                sv = sv.zip(emis, wadd);
                let iv = old_m
                    .zip(tmi, wadd)
                    .zip(old_i.zip(tii, wadd), |a, b| a.max(b));

                let sv = Lanes::from_fn(|t| {
                    if pos_active.lane(t) {
                        sv.lane(t)
                    } else {
                        W_NEG_INF
                    }
                });
                let iv = Lanes::from_fn(|t| {
                    if pos_active.lane(t) {
                        iv.lane(t)
                    } else {
                        W_NEG_INF
                    }
                });
                xev = xev.zip(sv, |a, b| a.max(b));

                // Step ③: in-place stores of cells k0+1.
                let st_addrs = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    (if k0 < m { k0 + 1 } else { 0 }) * 2
                });
                ctx.st_smem(st_addrs.map(|a| m_off + a), sv, pos_active);
                ctx.st_smem(st_addrs.map(|a| i_off + a), iv, pos_active);
                // D seed: current-row M at k0−1 (cell k0, just stored by the
                // left neighbour — lockstep makes this safe) plus M→D.
                let seed_src = ids.map(|t| m_off + (j * WARP_SIZE + t) * 2);
                let m_left = ctx.ld_smem(seed_src, pos_active);
                let dv = m_left.zip(tmd, wadd);
                let dv = Lanes::from_fn(|t| {
                    if pos_active.lane(t) {
                        dv.lane(t)
                    } else {
                        W_NEG_INF
                    }
                });
                dmaxv = dmaxv.zip(dv, |a, b| a.max(b));
                ctx.st_smem(st_addrs.map(|a| d_off + a), dv, pos_active);

                // Step ④.
                mpv = mpv_n;
                ipv = ipv_n;
                dpv = dpv_n;
            }

            // Algorithm 2 lines 22–23: two warp reductions.
            let xe = ctx.warp_reduce(xev, self.layout.scratch_base, Ord::max);
            let dmax = ctx.warp_reduce(dmaxv, self.layout.scratch_base, Ord::max);

            // Line 25: closure of the D→D chain.
            lazy.rows += 1;
            if dmax == W_NEG_INF {
                lazy.rows_skipped += 1;
            } else {
                self.lazy_f(ctx, d_off, iters, m, lazy);
            }
            ctx.stats.rows += 1;

            // Off-scale-high early exit (HMMER's eslERANGE): identical
            // check in the scalar and striped filters keeps bit-exactness.
            if xe == i16::MAX {
                ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
                return VitHit {
                    seqid: seqid as u32,
                    xc: i16::MAX,
                    score: f32::INFINITY,
                };
            }
            // Line 24: special states.
            ctx.alu(6);
            xj = wadd(xj, ls.loop_w).max(wadd(xe, ls.e_to_j));
            xc = wadd(xc, ls.loop_w).max(wadd(xe, ls.e_to_c));
            xn = wadd(xn, ls.loop_w);
            xb = wadd(xn.max(xj), ls.move_w);
        }
        ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
        VitHit {
            seqid: seqid as u32,
            xc,
            score: om.score_to_nats(xc, len),
        }
    }

    /// Fig. 7: warp-parallel D→D propagation over 32-position chunks.
    fn lazy_f(
        &self,
        ctx: &mut SimtCtx,
        d_off: usize,
        iters: usize,
        m: usize,
        lazy: &mut WarpLazyStats,
    ) {
        let ids = lane_ids();
        for j in 0..iters {
            lazy.chunks += 1;
            let pos_active = ids.map(|t| j * WARP_SIZE + t < m);
            let tdd = self.trans_chunk(ctx, T_DD, j, pos_active);
            // Current D values of this chunk (cells k0+1).
            let own = ids.map(|t| {
                let k0 = j * WARP_SIZE + t;
                d_off + (if k0 < m { k0 + 1 } else { 0 }) * 2
            });
            let mut dcur = ctx.ld_smem(own, pos_active);
            let mut guard = 0u32;
            loop {
                lazy.inner_iters += 1;
                guard += 1;
                // D at k0−1: cell k0 (boundary cell 0 is −∞ forever).
                let left = ids.map(|t| d_off + (j * WARP_SIZE + t) * 2);
                let dprev = ctx.ld_smem(left, pos_active);
                ctx.alu(VIT_ALU_PER_LAZY_ITER);
                let cand = dprev.zip(tdd, wadd);
                let no_improve =
                    Lanes::from_fn(|t| !pos_active.lane(t) || cand.lane(t) <= dcur.lane(t));
                // Fig. 7's `__all(MD_score > DD_score)` convergence test.
                if ctx.vote_all(no_improve) {
                    break;
                }
                dcur = dcur.zip(cand, |a, b| a.max(b));
                ctx.st_smem(own, dcur, pos_active);
                debug_assert!(guard <= WARP_SIZE as u32 + 2, "Lazy-F failed to converge");
                if guard > WARP_SIZE as u32 + 2 {
                    break;
                }
            }
        }
    }
}

impl WarpStage for VitWarpKernel<'_> {
    type Out = (Vec<VitHit>, WarpLazyStats);

    fn db(&self) -> PackedView<'_> {
        self.db
    }

    fn layout(&self) -> &SmemLayout {
        &self.layout
    }

    fn stage_tables_if_shared(&self, ctx: &mut SimtCtx) -> bool {
        let shared = self.mem == MemConfig::Shared;
        if shared {
            self.stage_tables(ctx);
        }
        shared
    }

    fn score_one(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
        (hits, lazy): &mut (Vec<VitHit>, WarpLazyStats),
    ) {
        hits.push(self.score(ctx, row_base, seqid, lazy, feed));
    }
}

impl WarpKernel for VitWarpKernel<'_> {
    type Out = (Vec<VitHit>, WarpLazyStats);

    fn run_warp(
        &self,
        ctx: &mut SimtCtx,
        global_warp: usize,
        total_warps: usize,
    ) -> (Vec<VitHit>, WarpLazyStats) {
        run_stage(self, ctx, global_warp, total_warps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{best_config, smem_layout, Stage};
    use h3w_cpu::quantized::vit_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;
    use h3w_simt::{run_grid, DeviceSpec};

    fn setup(
        m: usize,
        frac: f64,
        params: &BuildParams,
    ) -> (VitProfile, h3w_seqdb::SeqDb, PackedDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 7, params);
        let p = Profile::config(&core, &bg);
        let om = VitProfile::from_profile(&p);
        let mut spec = DbGenSpec::envnr_like().scaled(frac);
        spec.homolog_fraction = 0.08;
        let db = generate(&spec, Some(&core), 13);
        (om, db.clone(), PackedDb::from_db(&db))
    }

    fn launch(
        om: &VitProfile,
        packed: &PackedDb,
        mem: MemConfig,
        dev: &DeviceSpec,
    ) -> (Vec<VitHit>, h3w_simt::KernelStats, WarpLazyStats) {
        let (mut cfg, _) = best_config(Stage::Viterbi, om.m, mem, dev).expect("config fits");
        cfg.blocks = 3;
        cfg.track_hazards = true;
        let layout = smem_layout(Stage::Viterbi, om.m, cfg.warps_per_block, mem, dev);
        let kernel = VitWarpKernel {
            om,
            db: packed.view(),
            mem,
            layout,
        };
        let r = run_grid(dev, &cfg, &kernel).unwrap();
        let mut hits = Vec::new();
        let mut lazy = WarpLazyStats::default();
        for (h, l) in r.outputs {
            hits.extend(h);
            lazy.merge(&l);
        }
        hits.sort_by_key(|h| h.seqid);
        (hits, r.stats, lazy)
    }

    #[test]
    fn bit_exact_vs_scalar_shared_config() {
        let dev = DeviceSpec::tesla_k40();
        for m in [4usize, 33, 90] {
            let (om, db, packed) = setup(m, 0.00001, &BuildParams::default());
            let (hits, stats, _) = launch(&om, &packed, MemConfig::Shared, &dev);
            assert_eq!(hits.len(), db.len());
            for h in &hits {
                let e = vit_filter_scalar(&om, &db.seqs[h.seqid as usize].residues);
                assert_eq!(h.xc, e.xc, "m={m} seq {}", h.seqid);
            }
            assert_eq!(stats.hazards, 0);
            assert_eq!(stats.smem_conflict_extra, 0);
            assert_eq!(stats.barriers, 3); // one table publish per block
        }
    }

    #[test]
    fn bit_exact_on_gappy_models_deep_lazy_f() {
        let dev = DeviceSpec::tesla_k40();
        let (om, db, packed) = setup(70, 0.00001, &BuildParams::gappy());
        let (hits, _, lazy) = launch(&om, &packed, MemConfig::Shared, &dev);
        for h in &hits {
            let e = vit_filter_scalar(&om, &db.seqs[h.seqid as usize].residues);
            assert_eq!(h.xc, e.xc, "seq {}", h.seqid);
        }
        // Gappy models actually exercise the inner loop.
        assert!(lazy.inner_iters > lazy.chunks, "{lazy:?}");
    }

    #[test]
    fn bit_exact_global_config_and_fermi() {
        let (om, db, packed) = setup(50, 0.00001, &BuildParams::default());
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            for mem in [MemConfig::Shared, MemConfig::Global] {
                let (hits, stats, _) = launch(&om, &packed, mem, &dev);
                for h in &hits {
                    let e = vit_filter_scalar(&om, &db.seqs[h.seqid as usize].residues);
                    assert_eq!(h.xc, e.xc, "{} {:?} seq {}", dev.name, mem, h.seqid);
                }
                assert_eq!(stats.hazards, 0, "{} {:?}", dev.name, mem);
                if !dev.has_shfl {
                    assert_eq!(stats.shuffles, 0);
                }
            }
        }
    }

    #[test]
    fn lazy_f_convergence_vote_counts() {
        // Every chunk visit votes at least once; conserved models mostly
        // skip via Dmax = −∞ or converge in one vote.
        let dev = DeviceSpec::tesla_k40();
        let (om, _, packed) = setup(64, 0.00001, &BuildParams::default());
        let (_, stats, lazy) = launch(&om, &packed, MemConfig::Shared, &dev);
        assert!(stats.votes >= lazy.inner_iters);
        assert_eq!(lazy.rows, stats.rows);
        assert!(lazy.rows_skipped <= lazy.rows);
    }

    #[test]
    fn gappy_needs_more_lazy_f_than_conserved() {
        let dev = DeviceSpec::tesla_k40();
        let (om_c, _, packed_c) = setup(64, 0.00001, &BuildParams::default());
        let (om_g, _, packed_g) = setup(64, 0.00001, &BuildParams::gappy());
        let (_, _, lazy_c) = launch(&om_c, &packed_c, MemConfig::Shared, &dev);
        let (_, _, lazy_g) = launch(&om_g, &packed_g, MemConfig::Shared, &dev);
        let rate_c = lazy_c.inner_iters as f64 / lazy_c.rows.max(1) as f64;
        let rate_g = lazy_g.inner_iters as f64 / lazy_g.rows.max(1) as f64;
        assert!(
            rate_g > rate_c,
            "gappy {rate_g} should exceed conserved {rate_c}"
        );
    }
}
