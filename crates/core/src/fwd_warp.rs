//! A warp-synchronous **Forward** kernel — the paper's §VI future work
//! ("heterogeneous computing platforms … to accelerate the application"),
//! implemented with the same architecture-aware toolkit as Algorithms 1–2.
//!
//! Same schedule as the filter kernels: one warp per sequence, stride-32
//! row sweep over float M/I/D rows in shared memory (32 consecutive f32 =
//! one word per bank — conflict-free), register double-buffering for the
//! diagonal, tables through L2. Two Forward-specific pieces:
//!
//! * the row total `xE = ⊕_k M(i,k)` reduces under the log-sum-exp
//!   combine the way the device can (a butterfly shuffle on Kepler, the
//!   warp's shared-memory scratch on Fermi);
//! * the within-row D chain — `D(k) = lse(seed(k), D(k-1)+tdd(k))`, a
//!   *sum*, so Lazy-F's "rarely improves" shortcut does not apply — is
//!   closed with a per-chunk prefix scan in the `(lse, +)` semiring
//!   (fixed `2·log₂32` exchange depth, the §VI prefix-sums idea; shuffles
//!   on Kepler, scratch store/load pairs on Fermi).
//!
//! Per-cell arithmetic replicates the CPU Forward's exact combine order
//! and shares its `flogsum` table, so only reduction/scan *order* differs:
//! scores agree within small float drift (asserted in tests), not
//! bit-exactly — which is fine, Forward feeds a float threshold.

use crate::feed::DirectFeed;
use crate::layout::{SmemLayout, GM_EMIS_BASE, GM_OUT_BASE, GM_TRANS_BASE};
use crate::stage::{run_stage, WarpStage};
use h3w_hmm::logspace::flogsum;
use h3w_hmm::profile::{Profile, NEG_INF};
use h3w_seqdb::PackedView;
use h3w_simt::{lane_ids, Lanes, SimtCtx, WarpKernel, WARP_SIZE};

/// ALU instructions per stride-32 inner iteration (≈ 8 table-logsums at
/// 2 slots each plus addressing).
pub const FWD_ALU_PER_ITER: u64 = 20;
/// ALU instructions per row outside the inner loop.
pub const FWD_ALU_PER_ROW: u64 = 14;
/// ALU instructions per D-chain chunk scan.
pub const FWD_ALU_PER_SCAN: u64 = 13;

/// One scored sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwdHit {
    /// Sequence index in the database.
    pub seqid: u32,
    /// Forward score in nats.
    pub score: f32,
}

/// The Forward kernel.
pub struct FwdWarpKernel<'a> {
    /// Float search profile (the kernel's tables, read via L2).
    pub prof: &'a Profile,
    /// Packed target database.
    pub db: PackedView<'a>,
    /// Shared-memory region map (Stage::Forward layout).
    pub layout: SmemLayout,
}

impl<'a> FwdWarpKernel<'a> {
    /// Account an L2 table read of one f32 chunk and return its values.
    fn table_chunk(
        &self,
        ctx: &mut SimtCtx,
        table: &[f32],
        gmem_base: usize,
        j: usize,
        active: Lanes<bool>,
    ) -> Lanes<f32> {
        let ids = lane_ids();
        let addrs = ids.map(|t| gmem_base + (j * WARP_SIZE + t) * 4);
        ctx.gmem_access_cached(addrs, 4, active);
        Lanes::from_fn(|t| {
            let k0 = j * WARP_SIZE + t;
            if active.lane(t) {
                table[k0]
            } else {
                NEG_INF
            }
        })
    }

    fn preload_row(
        &self,
        ctx: &mut SimtCtx,
        off: usize,
        j: usize,
        iters: usize,
        m: usize,
    ) -> Lanes<f32> {
        if j >= iters {
            return Lanes::splat(NEG_INF);
        }
        let ids = lane_ids();
        let active = ids.map(|t| j * WARP_SIZE + t < m);
        let addrs = ids.map(|t| off + (j * WARP_SIZE + t) * 4);
        ctx.ld_smem(addrs, active)
    }

    fn clear_row(&self, ctx: &mut SimtCtx, off: usize, m: usize) {
        let ids = lane_ids();
        let mut cell = 0usize;
        while cell <= m {
            let active = ids.map(|t| cell + t <= m);
            let addrs = ids.map(|t| off + (cell + t) * 4);
            ctx.st_smem(addrs, Lanes::splat(NEG_INF), active);
            cell += WARP_SIZE;
        }
    }

    fn score(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
    ) -> FwdHit {
        let p = self.prof;
        let m = p.m;
        let iters = m.div_ceil(WARP_SIZE);
        let len = self.db.lengths[seqid] as usize;
        let xs = p.specials_for(len);
        feed.begin_seq(seqid);
        ctx.alu(FWD_ALU_PER_ROW);
        let ids = lane_ids();

        let m_off = row_base;
        let i_off = row_base + (m + 1) * 4;
        let d_off = row_base + 2 * (m + 1) * 4;
        self.clear_row(ctx, m_off, m);
        self.clear_row(ctx, i_off, m);
        self.clear_row(ctx, d_off, m);

        // Destination-aligned views of the profile's transition tables
        // (index k0 = transitions entering node k0+1; the source arrays
        // are already −∞ at index 0).
        let tmm = &p.tmm[..m];
        let tim = &p.tim[..m];
        let tdm = &p.tdm[..m];
        let tmd = &p.tmd[..m];
        let tdd = &p.tdd[..m];
        let bmk = &p.bmk[1..=m];
        // Self-node I transitions at node k0+1 (no I at the last node).
        let tmi_self: Vec<f32> = (0..m)
            .map(|k0| if k0 + 1 < m { p.tmi[k0 + 1] } else { NEG_INF })
            .collect();
        let tii_self: Vec<f32> = (0..m)
            .map(|k0| if k0 + 1 < m { p.tii[k0 + 1] } else { NEG_INF })
            .collect();

        let mut xn = 0.0f32;
        let mut xj = NEG_INF;
        let mut xc = NEG_INF;
        let mut xb = xn + xs.move_sc;
        for i in 0..len {
            let x = feed.residue(ctx, i) as usize;
            ctx.alu(FWD_ALU_PER_ROW);

            let emis_row: Vec<f32> = (1..=m).map(|k| p.msc[k][x]).collect();
            let mut xev = Lanes::splat(NEG_INF);
            let mut mpv = self.preload_row(ctx, m_off, 0, iters, m);
            let mut ipv = self.preload_row(ctx, i_off, 0, iters, m);
            let mut dpv = self.preload_row(ctx, d_off, 0, iters, m);
            for j in 0..iters {
                let pos_active = ids.map(|t| j * WARP_SIZE + t < m);
                let mpv_n = self.preload_row(ctx, m_off, j + 1, iters, m);
                let ipv_n = self.preload_row(ctx, i_off, j + 1, iters, m);
                let dpv_n = self.preload_row(ctx, d_off, j + 1, iters, m);
                let old_addrs = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    (if k0 < m { k0 + 1 } else { 0 }) * 4
                });
                let old_m = ctx.ld_smem::<f32>(old_addrs.map(|a| m_off + a), pos_active);
                let old_i = ctx.ld_smem::<f32>(old_addrs.map(|a| i_off + a), pos_active);

                let emis =
                    self.table_chunk(ctx, &emis_row, GM_EMIS_BASE + x * m * 4, j, pos_active);
                let tmm_v = self.table_chunk(ctx, tmm, GM_TRANS_BASE, j, pos_active);
                let tim_v = self.table_chunk(ctx, tim, GM_TRANS_BASE + m * 4, j, pos_active);
                let tdm_v = self.table_chunk(ctx, tdm, GM_TRANS_BASE + 2 * m * 4, j, pos_active);
                let bmk_v = self.table_chunk(ctx, bmk, GM_TRANS_BASE + 3 * m * 4, j, pos_active);
                let tmi_v =
                    self.table_chunk(ctx, &tmi_self, GM_TRANS_BASE + 5 * m * 4, j, pos_active);
                let tii_v =
                    self.table_chunk(ctx, &tii_self, GM_TRANS_BASE + 6 * m * 4, j, pos_active);
                let tmd_v = self.table_chunk(ctx, tmd, GM_TRANS_BASE + 7 * m * 4, j, pos_active);

                ctx.alu(FWD_ALU_PER_ITER);
                // Exactly the CPU's combine order: ((B ⊕ M) ⊕ I) ⊕ D, then
                // + emission.
                let mut mv = Lanes::from_fn(|t| xb + bmk_v.lane(t));
                mv = Lanes::from_fn(|t| flogsum(mv.lane(t), mpv.lane(t) + tmm_v.lane(t)));
                mv = Lanes::from_fn(|t| flogsum(mv.lane(t), ipv.lane(t) + tim_v.lane(t)));
                mv = Lanes::from_fn(|t| flogsum(mv.lane(t), dpv.lane(t) + tdm_v.lane(t)));
                mv = Lanes::from_fn(|t| {
                    if pos_active.lane(t) {
                        mv.lane(t) + emis.lane(t)
                    } else {
                        NEG_INF
                    }
                });
                let iv = Lanes::from_fn(|t| {
                    if pos_active.lane(t) {
                        flogsum(old_m.lane(t) + tmi_v.lane(t), old_i.lane(t) + tii_v.lane(t))
                    } else {
                        NEG_INF
                    }
                });
                xev = Lanes::from_fn(|t| flogsum(xev.lane(t), mv.lane(t)));

                let st_addrs = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    (if k0 < m { k0 + 1 } else { 0 }) * 4
                });
                ctx.st_smem(st_addrs.map(|a| m_off + a), mv, pos_active);
                ctx.st_smem(st_addrs.map(|a| i_off + a), iv, pos_active);
                // D seed from the current row's left-neighbour M (cell k0).
                let m_left =
                    ctx.ld_smem::<f32>(ids.map(|t| m_off + (j * WARP_SIZE + t) * 4), pos_active);
                let dv = Lanes::from_fn(|t| {
                    if pos_active.lane(t) {
                        m_left.lane(t) + tmd_v.lane(t)
                    } else {
                        NEG_INF
                    }
                });
                ctx.st_smem(st_addrs.map(|a| d_off + a), dv, pos_active);

                mpv = mpv_n;
                ipv = ipv_n;
                dpv = dpv_n;
            }

            // D-chain closure: per-chunk (lse, +) prefix scan, left to
            // right, carry across chunks.
            let mut carry = NEG_INF;
            for j in 0..iters {
                let pos_active = ids.map(|t| j * WARP_SIZE + t < m);
                let tdd_v = self.table_chunk(ctx, tdd, GM_TRANS_BASE + 4 * m * 4, j, pos_active);
                let own = ids.map(|t| {
                    let k0 = j * WARP_SIZE + t;
                    d_off + (if k0 < m { k0 + 1 } else { 0 }) * 4
                });
                let seeds = ctx.ld_smem(own, pos_active);
                ctx.warp_exchanges(10);
                ctx.alu(FWD_ALU_PER_SCAN);
                // Functional scan (exact in f64 prefix space).
                let mut out = seeds;
                let mut prefix: f64 = 0.0;
                let mut scanned = NEG_INF as f64; // lse of (seed_j − P_j)
                let mut carry_f = carry as f64;
                for t in 0..WARP_SIZE {
                    if !pos_active.lane(t) {
                        continue;
                    }
                    let d = tdd_v.lane(t);
                    if d == NEG_INF {
                        // A −∞ link breaks the chain: nothing to the left
                        // (including the carry) can reach this position.
                        prefix = 0.0;
                        scanned = NEG_INF as f64;
                        carry_f = f64::NEG_INFINITY;
                    } else {
                        prefix += d as f64;
                    }
                    let seed = seeds.lane(t);
                    // D(t) = lse(carry + P(t), lse_{j≤t}(seed_j − P_j) + P(t)).
                    if seed != NEG_INF {
                        scanned = lse64(scanned, seed as f64 - prefix);
                    }
                    let from_carry = if carry_f == NEG_INF as f64 {
                        f64::NEG_INFINITY
                    } else {
                        carry_f + prefix
                    };
                    let v = lse64(from_carry, scanned + prefix);
                    out.set_lane(t, if v.is_finite() { v as f32 } else { NEG_INF });
                }
                ctx.st_smem(own, out, pos_active);
                for t in (0..WARP_SIZE).rev() {
                    if pos_active.lane(t) {
                        carry = out.lane(t);
                        carry_f = carry as f64;
                        break;
                    }
                }
                let _ = carry_f;
            }

            // Row total and specials.
            let xe = ctx.warp_reduce(xev, self.layout.scratch_base, flogsum);
            ctx.alu(8);
            xj = flogsum(xj + xs.loop_sc, xe + xs.e_to_j);
            xc = flogsum(xc + xs.loop_sc, xe + xs.e_to_c);
            xn += xs.loop_sc;
            xb = flogsum(xn, xj) + xs.move_sc;
            ctx.stats.rows += 1;
        }
        ctx.gmem_access_uniform(GM_OUT_BASE + seqid * 4, 4);
        FwdHit {
            seqid: seqid as u32,
            score: xc + xs.move_sc,
        }
    }
}

fn lse64(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY || a <= NEG_INF as f64 {
        b
    } else if b == f64::NEG_INFINITY || b <= NEG_INF as f64 {
        a
    } else if a >= b {
        a + (b - a).exp().ln_1p()
    } else {
        b + (a - b).exp().ln_1p()
    }
}

impl WarpStage for FwdWarpKernel<'_> {
    type Out = Vec<FwdHit>;

    fn db(&self) -> PackedView<'_> {
        self.db
    }

    fn layout(&self) -> &SmemLayout {
        &self.layout
    }

    /// The float tables never fit in shared memory for useful M: Forward
    /// reads them through L2 and its launch needs no barrier at all.
    fn stage_tables_if_shared(&self, _ctx: &mut SimtCtx) -> bool {
        false
    }

    fn score_one(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
        out: &mut Vec<FwdHit>,
    ) {
        out.push(self.score(ctx, row_base, seqid, feed));
    }
}

impl WarpKernel for FwdWarpKernel<'_> {
    type Out = Vec<FwdHit>;

    fn run_warp(&self, ctx: &mut SimtCtx, global_warp: usize, total_warps: usize) -> Vec<FwdHit> {
        run_stage(self, ctx, global_warp, total_warps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{best_config, smem_layout, MemConfig, Stage};
    use h3w_cpu::reference::forward_generic;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;
    use h3w_simt::{run_grid, DeviceSpec};

    fn launch(
        m: usize,
        params: &BuildParams,
    ) -> (
        Profile,
        h3w_seqdb::SeqDb,
        Vec<FwdHit>,
        h3w_simt::KernelStats,
    ) {
        let bg = NullModel::new();
        let model = synthetic_model(m, 7, params);
        let prof = Profile::config(&model, &bg);
        let mut spec = DbGenSpec::envnr_like().scaled(4e-6);
        spec.homolog_fraction = 0.1;
        let db = generate(&spec, Some(&model), 3);
        let packed = PackedDb::from_db(&db);
        let dev = DeviceSpec::tesla_k40();
        let (mut cfg, _) = best_config(Stage::Forward, m, MemConfig::Global, &dev).unwrap();
        cfg.blocks = 2;
        cfg.track_hazards = true;
        let layout = smem_layout(
            Stage::Forward,
            m,
            cfg.warps_per_block,
            MemConfig::Global,
            &dev,
        );
        let kernel = FwdWarpKernel {
            prof: &prof,
            db: packed.view(),
            layout,
        };
        let r = run_grid(&dev, &cfg, &kernel).unwrap();
        let mut hits: Vec<FwdHit> = r.outputs.into_iter().flatten().collect();
        hits.sort_by_key(|h| h.seqid);
        (prof, db, hits, r.stats)
    }

    #[test]
    fn forward_kernel_tracks_cpu_forward() {
        for (m, params) in [
            (30usize, BuildParams::default()),
            (70, BuildParams::gappy()),
        ] {
            let (prof, db, hits, stats) = launch(m, &params);
            assert_eq!(hits.len(), db.len());
            assert_eq!(stats.hazards, 0);
            assert_eq!(stats.smem_conflict_extra, 0);
            for h in &hits {
                let seq = &db.seqs[h.seqid as usize].residues;
                let cpu = forward_generic(&prof, seq);
                let tol = 0.05 + 0.002 * seq.len() as f32;
                assert!(
                    (h.score - cpu).abs() < tol,
                    "m={m} seq {}: kernel {} vs cpu {} (tol {tol})",
                    h.seqid,
                    h.score,
                    cpu
                );
            }
        }
    }

    #[test]
    fn forward_kernel_is_sync_free_and_ordered() {
        let (_, db, hits, stats) = launch(25, &BuildParams::default());
        assert_eq!(stats.barriers, 0, "no staging ⇒ no barriers at all");
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.seqid as usize, i);
        }
        assert_eq!(stats.sequences, db.len() as u64);
        // Forward cannot early-exit: every residue row is processed.
        assert_eq!(stats.rows, db.total_residues());
    }
}
