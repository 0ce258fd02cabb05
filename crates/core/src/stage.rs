//! The warp tier's schedule, written once: Algorithm 1 lines 1–6.
//!
//! Every filter kernel maps warp ↦ sequence the same way: the block's
//! first warp stages the shared-config tables and one barrier publishes
//! them, then each warp strides statically over the database, scoring one
//! sequence at a time into its own DP-row region. What differs per stage
//! is only the body of the loop. [`WarpStage`] is that body and
//! [`run_stage`] is the loop; the direct kernels call it with a
//! [`DirectFeed`](crate::feed::DirectFeed) from their `WarpKernel` impls
//! (a blanket impl would break the orphan rule), and [`Pipelined`] calls
//! it with a [`RingFeed`] fed by the paired loader warp.

use crate::feed::{ResidueSource, RingFeed};
use crate::layout::SmemLayout;
use h3w_seqdb::PackedView;
use h3w_simt::{PairKernel, RingSpec, SimtCtx};

/// One filter stage's per-sequence work, independent of where its residue
/// words come from.
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
    fn score_one<F: ResidueSource>(
        &self,
        ctx: &mut SimtCtx,
        row_base: usize,
        seqid: usize,
        feed: &mut F,
        out: &mut Self::Out,
    );
}

/// One warp's (or one pair's compute warp's) lifetime: sequences `first,
/// first + stride, …`, with `ctx.warp_id` naming its slot in the block.
/// `#[inline]` keeps each kernel's entry point one body (loop plus
/// `score_one`), the shape the hand-written loops compiled to; outlined,
/// the simulator's wall clock moved with where the pieces linked (E16).
#[inline]
pub fn run_stage<K: WarpStage, F: ResidueSource>(
    kernel: &K,
    ctx: &mut SimtCtx,
    first: usize,
    stride: usize,
    feed: &mut F,
) -> K::Out {
    // The only barrier in the kernel's lifetime: launch setup, not the
    // per-row synchronization the paper's design eliminates (2/row in
    // Fig. 4).
    if ctx.warp_id == 0 && kernel.stage_tables_if_shared(ctx) {
        ctx.barrier();
    }
    let layout = kernel.layout();
    let row_base = layout.rows_base + ctx.warp_id as usize * layout.row_stride;
    let n_seqs = kernel.db().n_seqs();
    let mut out = K::Out::default();
    let mut seqid = first;
    while seqid < n_seqs {
        kernel.score_one(ctx, row_base, seqid, feed, &mut out);
        ctx.stats.sequences += 1;
        ctx.alu(2); // striding bookkeeping
        seqid += stride;
    }
    out
}

/// A warp-specialized launch of stage `K`: the same DP schedule on the
/// compute warp, with residue streaming split out to a paired loader warp
/// that runs ahead through an N-stage shared-memory ring (launch with
/// [`h3w_simt::run_grid_pairs`] over a [`crate::layout::pipelined_layout`]).
/// The ring moves *when* residue words arrive, never their values or the
/// arithmetic order, so every stage's output equals its direct kernel's.
pub struct Pipelined<K> {
    /// The underlying kernel (layout must carry a ring region).
    pub inner: K,
    /// Ring depth.
    pub ring: RingSpec,
    /// Pairs per block of the launch (loader warp ids start here).
    pub pairs_per_block: usize,
    /// Emit full/empty barrier arrivals. `false` reproduces the
    /// unsynchronized-ring race for failure-injection tests.
    pub sync: bool,
}

impl<K: WarpStage> PairKernel for Pipelined<K> {
    type Out = K::Out;

    fn run_pair(&self, ctx: &mut SimtCtx, global_pair: usize, total_pairs: usize) -> K::Out {
        let pair = ctx.warp_id as usize / 2;
        ctx.warp_id = pair as u16; // compute role
        let mut feed = RingFeed::new(
            self.inner.db(),
            global_pair,
            total_pairs,
            self.ring,
            self.inner.layout().ring_base + pair * self.ring.bytes_per_pair(),
            (self.pairs_per_block + pair) as u16,
            pair as u16,
        );
        feed.sync = self.sync;
        let out = run_stage(&self.inner, ctx, global_pair, total_pairs, &mut feed);
        feed.finish(ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fwd_warp::FwdWarpKernel;
    use crate::layout::{best_config, pipelined_layout, regs_per_thread, MemConfig, Stage};
    use crate::msv_warp::MsvWarpKernel;
    use crate::ssv_warp::SsvWarpKernel;
    use crate::vit_warp::{DdMode, VitWarpKernel};
    use h3w_cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
    use h3w_cpu::reference::forward_generic;
    use h3w_cpu::ssv::ssv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::msvprofile::MsvProfile;
    use h3w_hmm::profile::Profile;
    use h3w_hmm::vitprofile::VitProfile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::{PackedDb, SeqDb};
    use h3w_simt::{run_grid, run_grid_pairs, DeviceSpec, KernelConfig, KernelStats, WarpKernel};

    const PAIRS: usize = 4;
    const BLOCKS: usize = 2;

    fn setup(m: usize, frac: f64) -> (Profile, SeqDb, PackedDb) {
        let core = synthetic_model(m, 99, &BuildParams::default());
        let mut spec = DbGenSpec::envnr_like().scaled(frac);
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&core), 31);
        let packed = PackedDb::from_db(&db);
        (Profile::config(&core, &NullModel::new()), db, packed)
    }

    /// Launch `make(layout)` behind a `stages`-deep ring on a fixed
    /// geometry, so depth sweeps compare identical work streams.
    fn launch_ring<K: WarpStage>(
        (stage, m, mem, dev): (Stage, usize, MemConfig, &DeviceSpec),
        stages: usize,
        sync: bool,
        make: impl Fn(SmemLayout) -> K,
    ) -> (Vec<K::Out>, KernelStats) {
        let ring = RingSpec::new(stages).unwrap();
        let layout = pipelined_layout(stage, m, PAIRS, mem, dev, ring);
        let cfg = KernelConfig {
            warps_per_block: 2 * PAIRS,
            blocks: BLOCKS,
            regs_per_thread: regs_per_thread(stage),
            smem_per_block: layout.total,
            track_hazards: true,
        };
        let kernel = Pipelined {
            inner: make(layout),
            ring,
            pairs_per_block: PAIRS,
            sync,
        };
        let r = run_grid_pairs(dev, &cfg, &kernel).unwrap();
        (r.outputs, r.stats)
    }

    /// `Pipelined<K>` == direct `K` == the CPU reference, at ring depths
    /// 2, 4 and 8, for one (stage, table placement, device). `hits`
    /// flattens the per-warp outputs into database order; `agrees` holds
    /// one hit against the CPU filter. Returns `false` when the placement
    /// does not fit the device.
    fn ring_matches_direct_and_cpu<K, H>(
        shape: (Stage, usize, MemConfig, &DeviceSpec),
        make: impl Fn(SmemLayout) -> K,
        hits: impl Fn(Vec<<K as WarpStage>::Out>) -> Vec<H>,
        agrees: impl Fn(&H),
    ) -> bool
    where
        K: WarpStage + WarpKernel<Out = <K as WarpStage>::Out>,
        H: PartialEq + std::fmt::Debug,
    {
        let (stage, m, mem, dev) = shape;
        let Some((mut cfg, _)) = best_config(stage, m, mem, dev) else {
            return false;
        };
        cfg.blocks = BLOCKS;
        cfg.track_hazards = true;
        let layout = crate::layout::smem_layout(stage, m, cfg.warps_per_block, mem, dev);
        let direct = run_grid(dev, &cfg, &make(layout)).unwrap();
        assert_eq!(direct.stats.hazards, 0);
        let base = hits(direct.outputs);
        base.iter().for_each(&agrees);
        for stages in [2usize, 4, 8] {
            let tag = format!("{stage:?} {mem:?} {} stages={stages}", dev.name);
            let (outs, stats) = launch_ring(shape, stages, true, &make);
            assert_eq!(hits(outs), base, "{tag}");
            assert_eq!(stats.hazards, 0, "{tag}");
            assert_eq!(stats.smem_conflict_extra, 0, "{tag}");
            // The compute warp adds no barrier of its own: ring arrivals
            // are a separate counter.
            assert_eq!(stats.barriers, direct.stats.barriers, "{tag}");
            assert!(stats.ring_syncs > 0, "{tag}");
            assert!(stats.simulated_overlap().expect("pipe ran") > 0.0, "{tag}");
        }
        true
    }

    fn by_seqid<H>(mut hits: Vec<H>, seqid: impl Fn(&H) -> u32) -> Vec<H> {
        hits.sort_by_key(seqid);
        hits
    }

    #[test]
    fn every_stage_is_bit_exact_through_the_ring_at_every_depth() {
        let m = 70usize;
        let (prof, db, packed) = setup(m, 6e-6);
        let msv = MsvProfile::from_profile(&prof);
        let vit = VitProfile::from_profile(&prof);
        let view = packed.view();
        let seq = |id: u32| &db.seqs[id as usize].residues[..];
        let mut ran = 0;
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            let use_shfl = dev.has_shfl;
            for mem in [MemConfig::Shared, MemConfig::Global] {
                ran += ring_matches_direct_and_cpu(
                    (Stage::Msv, m, mem, &dev),
                    |layout| MsvWarpKernel {
                        om: &msv,
                        db: view,
                        mem,
                        layout,
                        use_shfl,
                        double_buffer: true,
                    },
                    |outs| by_seqid(outs.into_iter().flatten().collect(), |h| h.seqid),
                    |h| {
                        let e = msv_filter_scalar(&msv, seq(h.seqid));
                        assert_eq!((h.xj, h.overflow), (e.xj, e.overflow), "msv {}", h.seqid);
                    },
                ) as usize;
                ran += ring_matches_direct_and_cpu(
                    (Stage::Msv, m, mem, &dev),
                    |layout| SsvWarpKernel {
                        om: &msv,
                        db: view,
                        mem,
                        layout,
                        use_shfl,
                    },
                    |outs| by_seqid(outs.into_iter().flatten().collect(), |h| h.seqid),
                    |h| {
                        let e = ssv_filter_scalar(&msv, seq(h.seqid));
                        assert_eq!((h.xj, h.overflow), (e.xj, e.overflow), "ssv {}", h.seqid);
                    },
                ) as usize;
                ran += ring_matches_direct_and_cpu(
                    (Stage::Viterbi, m, mem, &dev),
                    |layout| VitWarpKernel {
                        om: &vit,
                        db: view,
                        mem,
                        layout,
                        use_shfl,
                        dd_mode: DdMode::default(),
                    },
                    |outs| by_seqid(outs.into_iter().flat_map(|(h, _)| h).collect(), |h| h.seqid),
                    |h| {
                        assert_eq!(
                            h.xc,
                            vit_filter_scalar(&vit, seq(h.seqid)).xc,
                            "vit {}",
                            h.seqid
                        )
                    },
                ) as usize;
                // Float scores too: the ring never reorders arithmetic.
                ran += ring_matches_direct_and_cpu(
                    (Stage::Forward, m, mem, &dev),
                    |layout| FwdWarpKernel {
                        prof: &prof,
                        db: view,
                        layout,
                    },
                    |outs| by_seqid(outs.into_iter().flatten().collect(), |h| h.seqid),
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
        assert_eq!(ran, 16, "every stage × placement × device fits at M = {m}");
    }

    fn msv_ring(prof: &Profile, packed: &PackedDb, stages: usize, sync: bool) -> KernelStats {
        let dev = DeviceSpec::tesla_k40();
        let om = MsvProfile::from_profile(prof);
        let shape = (Stage::Msv, om.m, MemConfig::Shared, &dev);
        let (_, stats) = launch_ring(shape, stages, sync, |layout| MsvWarpKernel {
            om: &om,
            db: packed.view(),
            mem: MemConfig::Shared,
            layout,
            use_shfl: true,
            double_buffer: true,
        });
        stats
    }

    #[test]
    fn unsynchronized_ring_trips_the_race_detector() {
        // Failure injection: the loader/compute split is only safe because
        // of the full/empty barrier pairs. Eliding them must race.
        let (prof, _, packed) = setup(40, 2e-5);
        let stats = msv_ring(&prof, &packed, 4, false);
        assert!(stats.hazards > 0, "unsynchronized ring must race");
    }

    #[test]
    fn deeper_ring_never_lengthens_the_simulated_makespan() {
        let (prof, _, packed) = setup(33, 2e-5);
        let mut prev = u64::MAX;
        for stages in [2usize, 4, 8] {
            let stats = msv_ring(&prof, &packed, stages, true);
            assert!(
                stats.pipe_makespan_slots <= prev,
                "stages={stages}: {} after {prev}",
                stats.pipe_makespan_slots
            );
            assert!(stats.pipe_makespan_slots <= stats.pipe_serial_slots);
            prev = stats.pipe_makespan_slots;
        }
    }
}
