//! The warp tier's schedule, written once: Algorithm 1 lines 1–6.
//!
//! Every filter kernel maps warp ↦ sequence the same way: the block's
//! first warp stages the shared-config tables and one barrier publishes
//! them, then each warp strides statically over the database, scoring one
//! sequence at a time into its own DP-row region and reading its residues
//! through one [`DirectFeed`]. What differs per stage is only the body of
//! the loop. [`WarpStage`] is that body and [`run_stage`] is the loop;
//! each kernel's `WarpKernel` impl is one call into it (a blanket impl
//! would break the orphan rule).

use crate::feed::DirectFeed;
use crate::layout::SmemLayout;
use h3w_seqdb::PackedView;
use h3w_simt::SimtCtx;

/// One filter stage's per-sequence work.
pub trait WarpStage: Sync {
    /// What one warp hands back: its hits, plus whatever else the stage
    /// tallies (Viterbi carries its Lazy-F effort).
    type Out: Send + Default;

    /// The packed database the launch sweeps.
    fn db(&self) -> PackedView<'_>;

    /// Shared-memory region map of the launch.
    fn layout(&self) -> &SmemLayout;

    /// Stage the score tables into shared memory when this launch keeps
    /// them there (counted as real traffic); `false` when there is
    /// nothing to stage and hence nothing to publish.
    fn stage_tables_if_shared(&self, ctx: &mut SimtCtx) -> bool;

    /// Score sequence `seqid` in the DP rows at `row_base`, reading its
    /// residues through `feed`, and fold the result into `out`.
    fn score_one(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut DirectFeed<'_>,
        out: &mut Self::Out,
    );
}

/// One warp's lifetime: sequences `first, first + stride, …`, with
/// `ctx.warp_id` naming its slot in the block. `#[inline]` folds the loop
/// into each kernel's `run_warp`, where the hand-written loops were. The
/// simulator's wall clock moves with where its code links, not with how
/// the kernel body is split into functions (EXPERIMENTS.md E16).
#[inline]
pub fn run_stage<K: WarpStage>(
    kernel: &K,
    ctx: &mut SimtCtx,
    first: usize,
    stride: usize,
) -> K::Out {
    // The only barrier in the kernel's lifetime: launch setup, not the
    // per-row synchronization the paper's design eliminates (2/row in
    // Fig. 4).
    if ctx.warp_id == 0 && kernel.stage_tables_if_shared(ctx) {
        ctx.barrier();
    }
    let layout = kernel.layout();
    let row_base = layout.rows_base + ctx.warp_id as usize * layout.row_stride;
    let db = kernel.db();
    let n_seqs = db.n_seqs();
    let mut feed = DirectFeed::new(db);
    let mut out = K::Out::default();
    let mut seqid = first;
    while seqid < n_seqs {
        kernel.score_one(ctx, row_base, seqid, &mut feed, &mut out);
        ctx.stats.sequences += 1;
        ctx.alu(2); // striding bookkeeping
        seqid += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fwd_warp::FwdWarpKernel;
    use crate::layout::{best_config, smem_layout, MemConfig, Stage};
    use crate::msv_warp::MsvWarpKernel;
    use crate::vit_warp::VitWarpKernel;
    use h3w_cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
    use h3w_cpu::reference::forward_generic;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::msvprofile::MsvProfile;
    use h3w_hmm::profile::Profile;
    use h3w_hmm::vitprofile::VitProfile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::{PackedDb, SeqDb};
    use h3w_simt::{run_grid, DeviceSpec, WarpKernel};

    fn setup(m: usize, frac: f64) -> (Profile, SeqDb, PackedDb) {
        let core = synthetic_model(m, 99, &BuildParams::default());
        let mut spec = DbGenSpec::envnr_like().scaled(frac);
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&core), 31);
        let packed = PackedDb::from_db(&db);
        (Profile::config(&core, &NullModel::new()), db, packed)
    }

    /// Launch `make(layout)` for one (stage, table placement, device) and
    /// hold it to the CPU reference: `hits` flattens the per-warp outputs,
    /// `agrees` holds one hit against the CPU filter, and every one of the
    /// `n_seqs` sequences must be scored with zero hazards and zero bank
    /// conflicts. Returns `false` when the placement does not fit the
    /// device.
    fn matches_cpu<K: WarpKernel, H>(
        (stage, m, mem, dev): (Stage, usize, MemConfig, &DeviceSpec),
        n_seqs: usize,
        make: impl Fn(SmemLayout) -> K,
        hits: impl Fn(Vec<<K as WarpKernel>::Out>) -> Vec<H>,
        agrees: impl Fn(&H),
    ) -> bool {
        let Some((mut cfg, _)) = best_config(stage, m, mem, dev) else {
            return false;
        };
        cfg.blocks = 2;
        cfg.track_hazards = true;
        let layout = smem_layout(stage, m, cfg.warps_per_block, mem, dev);
        let r = run_grid(dev, &cfg, &make(layout)).unwrap();
        let tag = format!("{stage:?} {mem:?} {}", dev.name);
        assert_eq!(r.stats.hazards, 0, "{tag}");
        assert_eq!(r.stats.smem_conflict_extra, 0, "{tag}");
        let hits = hits(r.outputs);
        assert_eq!(hits.len(), n_seqs, "{tag}");
        hits.iter().for_each(agrees);
        true
    }

    #[test]
    fn every_stage_matches_the_cpu_reference_on_every_placement_and_device() {
        let m = 70usize;
        let (prof, db, packed) = setup(m, 6e-6);
        let msv = MsvProfile::from_profile(&prof);
        let vit = VitProfile::from_profile(&prof);
        let view = packed.view();
        let n = db.len();
        let seq = |id: u32| &db.seqs[id as usize].residues[..];
        let mut ran = 0;
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            for mem in [MemConfig::Shared, MemConfig::Global] {
                ran += matches_cpu(
                    (Stage::Msv, m, mem, &dev),
                    n,
                    |layout| MsvWarpKernel {
                        om: &msv,
                        db: view,
                        mem,
                        layout,
                    },
                    |outs| outs.into_iter().flatten().collect(),
                    |h| {
                        let e = msv_filter_scalar(&msv, seq(h.seqid));
                        assert_eq!((h.xj, h.overflow), (e.xj, e.overflow), "msv {}", h.seqid);
                    },
                ) as usize;
                ran += matches_cpu(
                    (Stage::Viterbi, m, mem, &dev),
                    n,
                    |layout| VitWarpKernel {
                        om: &vit,
                        db: view,
                        mem,
                        layout,
                    },
                    |outs| outs.into_iter().flat_map(|(h, _)| h).collect(),
                    |h| {
                        assert_eq!(
                            h.xc,
                            vit_filter_scalar(&vit, seq(h.seqid)).xc,
                            "vit {}",
                            h.seqid
                        )
                    },
                ) as usize;
                // Float scores agree within reduction-order drift.
                ran += matches_cpu(
                    (Stage::Forward, m, mem, &dev),
                    n,
                    |layout| FwdWarpKernel {
                        prof: &prof,
                        db: view,
                        layout,
                    },
                    |outs| outs.into_iter().flatten().collect(),
                    |h| {
                        let cpu = forward_generic(&prof, seq(h.seqid));
                        let tol = 0.05 + 0.002 * seq(h.seqid).len() as f32;
                        assert!(
                            (h.score - cpu).abs() < tol,
                            "fwd {}: {} vs {cpu}",
                            h.seqid,
                            h.score
                        );
                    },
                ) as usize;
            }
        }
        assert_eq!(ran, 12, "every stage × placement × device fits at M = {m}");
    }
}
