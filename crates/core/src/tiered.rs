//! The three-tiered parallelization framework (§III-C, Fig. 8) and the
//! cache-aware configuration switch (§IV).
//!
//! Tier (a): a warp scores one sequence (Algorithms 1–2). Tier (b): a
//! block holds several warps, each on its own sequence, sharing staged
//! tables. Tier (c): the grid holds enough blocks to fill every SM's
//! resident slots several times over; warps grab further sequences by
//! static striding. On top sits the §IV policy: pick shared-memory or
//! global-memory tables by *modeled time*, which lands the switch near the
//! paper's observed threshold (≈ model size 1002 for MSV on Kepler).

use crate::layout::{best_config, smem_layout, MemConfig, SmemLayout, Stage};
use crate::msv_warp::{MsvHit, MsvWarpKernel};
use crate::stats_model::{predict_msv, predict_vit, DbAggregates, LaunchShape};
use crate::vit_warp::{VitHit, VitWarpKernel, WarpLazyStats};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_seqdb::PackedView;
use h3w_simt::{
    imbalance_factor, kernel_time, run_grid, saturating_grid, DeviceSpec, KernelConfig,
    KernelStats, Occupancy, TimeBreakdown, WarpKernel, WARP_SIZE,
};

/// Why a device stage could not run: each is a planning error that a
/// real input (a model, a plan) can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// No kernel configuration of this stage fits this model on the device.
    NoConfig {
        /// The stage.
        stage: Stage,
        /// Model size that fit nothing.
        m: usize,
    },
    /// The engine rejected the launch's geometry or resources.
    Launch(String),
    /// The sweep was given a pool of no devices.
    NoDevices,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NoConfig { stage, m } => {
                write!(f, "{stage:?}: model size {m} fits no configuration")
            }
            SweepError::Launch(msg) => write!(f, "launch rejected: {msg}"),
            SweepError::NoDevices => write!(f, "the device pool has no devices"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Default grid depth: blocks per SM slot, so each warp slot sees several
/// sequences and the striding amortizes tails.
pub const DEFAULT_WAVES: usize = 4;

/// Everything a device-stage execution reports.
#[derive(Debug, Clone)]
pub struct StageRun {
    /// Chosen table placement.
    pub mem: MemConfig,
    /// Launch geometry.
    pub config: KernelConfig,
    /// Residency on the device.
    pub occupancy: Occupancy,
    /// Counted events.
    pub stats: KernelStats,
    /// Measured per-warp load-imbalance factor.
    pub imbalance: f64,
    /// Modeled execution time.
    pub time: TimeBreakdown,
}

/// Functional execution of one stage on one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceRun<H> {
    /// Per-sequence outcomes, indexed by database order.
    pub hits: Vec<H>,
    /// Execution report.
    pub run: StageRun,
}

/// Functional MSV execution on one simulated device.
pub type MsvRun = DeviceRun<MsvHit>;

/// Functional P7Viterbi execution on one simulated device.
#[derive(Debug, Clone)]
pub struct VitRun {
    /// Per-sequence outcomes, indexed by database order.
    pub hits: Vec<VitHit>,
    /// Lazy-F effort.
    pub lazy: WarpLazyStats,
    /// Execution report.
    pub run: StageRun,
}

/// The data-dependent effort of one stage, which aggregates alone do not
/// give. The default is the baseline: MSV executes every row and word (no
/// overflow early exit) and Viterbi's Lazy-F converges at once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Effort {
    /// MSV's executed rows and packed words.
    pub msv: Option<(u64, u64)>,
    /// Viterbi's Lazy-F effort; its `rows` must equal the aggregates'
    /// residues.
    pub lazy: Option<WarpLazyStats>,
}

/// The device-time model: one stage at one table placement, for a
/// workload given by aggregates, on the grid a launch of that placement
/// saturates ([`DEFAULT_WAVES`]). Returns the residency, the predicted
/// counters and the modelled time. `None` when the placement does not
/// fit the device. The placement switch ([`auto_mem_config`]), the figures and the
/// multi-device claim all time a stage here.
pub fn model_stage_time(
    stage: Stage,
    m: usize,
    dev: &DeviceSpec,
    mem: MemConfig,
    agg: &DbAggregates,
    effort: &Effort,
) -> Option<(Occupancy, KernelStats, TimeBreakdown)> {
    let (_, occ) = best_config(stage, m, mem, dev)?;
    let shape = LaunchShape::new(dev, mem, saturating_grid(dev, &occ, DEFAULT_WAVES) as u64);
    let stats = match stage {
        Stage::Msv => {
            let (rows, words) = effort.msv.unwrap_or((agg.total_residues, agg.total_words));
            predict_msv(m, &shape, agg, rows, words)
        }
        Stage::Viterbi => {
            let iters = m.div_ceil(WARP_SIZE) as u64;
            let baseline = WarpLazyStats {
                rows: agg.total_residues,
                rows_skipped: 0,
                chunks: agg.total_residues * iters,
                inner_iters: agg.total_residues * iters,
            };
            predict_vit(m, &shape, agg, &effort.lazy.unwrap_or(baseline))
        }
    };
    let time = kernel_time(dev, &stats, &occ, 1.0);
    Some((occ, stats, time))
}

/// Pick the table placement by modeled time (the paper's "optimal speedup
/// strategy", black curve of Fig. 9), shared on a tie. `agg` supplies the
/// workload shape; the effort is the baseline, which is
/// placement-independent and cancels in the comparison. `None` when
/// neither placement fits.
pub fn auto_mem_config(
    stage: Stage,
    m: usize,
    dev: &DeviceSpec,
    agg: &DbAggregates,
) -> Option<MemConfig> {
    [MemConfig::Shared, MemConfig::Global]
        .into_iter()
        .filter_map(|mem| {
            let (_, _, t) = model_stage_time(stage, m, dev, mem, agg, &Effort::default())?;
            Some((mem, t.total_s))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(mem, _)| mem)
}

/// The launch sequence every device stage shares: pick the table
/// placement (`mem = None` applies the automatic switch), take the
/// residency-maximizing block shape, size the grid to the work, lay out
/// shared memory, build the kernel, and run it. Returns the per-warp
/// outputs in launch order.
fn launch<K: WarpKernel>(
    stage: Stage,
    m: usize,
    db: PackedView<'_>,
    dev: &DeviceSpec,
    mem: Option<MemConfig>,
    kernel: impl FnOnce(MemConfig, SmemLayout) -> K,
) -> Result<(Vec<K::Out>, StageRun), SweepError> {
    let no_config = || SweepError::NoConfig { stage, m };
    let mem = mem
        .or_else(|| auto_mem_config(stage, m, dev, &DbAggregates::from_packed(db)))
        .ok_or_else(no_config)?;
    let (mut cfg, occ) = best_config(stage, m, mem, dev).ok_or_else(no_config)?;
    cfg.blocks = saturating_grid(dev, &occ, DEFAULT_WAVES)
        .min(db.n_seqs().div_ceil(cfg.warps_per_block).max(1));
    let kernel = kernel(mem, smem_layout(stage, m, cfg.warps_per_block, mem, dev));
    let r = run_grid(dev, &cfg, &kernel).map_err(SweepError::Launch)?;
    let slots = (occ.resident_warps * dev.sm_count).max(1);
    let imbalance = imbalance_factor(&r.work_per_unit, slots);
    let time = kernel_time(dev, &r.stats, &occ, imbalance);
    let run = StageRun {
        mem,
        config: cfg,
        occupancy: occ,
        stats: r.stats,
        imbalance,
        time,
    };
    Ok((r.outputs, run))
}

/// Run the MSV stage functionally on one simulated device. `mem = None`
/// applies the automatic switch.
pub fn run_msv_device<'a>(
    om: &MsvProfile,
    db: impl Into<PackedView<'a>>,
    dev: &DeviceSpec,
    mem: Option<MemConfig>,
) -> Result<MsvRun, SweepError> {
    let db = db.into();
    let (outs, run) = launch(Stage::Msv, om.m, db, dev, mem, |mem, layout| {
        MsvWarpKernel {
            om,
            db,
            mem,
            layout,
        }
    })?;
    let mut hits: Vec<MsvHit> = outs.into_iter().flatten().collect();
    hits.sort_by_key(|h| h.seqid);
    Ok(MsvRun { hits, run })
}

/// Run the P7Viterbi stage functionally on one simulated device.
pub fn run_vit_device<'a>(
    om: &VitProfile,
    db: impl Into<PackedView<'a>>,
    dev: &DeviceSpec,
    mem: Option<MemConfig>,
) -> Result<VitRun, SweepError> {
    let db = db.into();
    let (outs, run) = launch(Stage::Viterbi, om.m, db, dev, mem, |mem, layout| {
        VitWarpKernel {
            om,
            db,
            mem,
            layout,
        }
    })?;
    let mut hits = Vec::new();
    let mut lazy = WarpLazyStats::default();
    for (h, l) in outs {
        hits.extend(h);
        lazy.merge(&l);
    }
    hits.sort_by_key(|h| h.seqid);
    Ok(VitRun { hits, lazy, run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;

    fn setup(m: usize) -> (MsvProfile, VitProfile, h3w_seqdb::SeqDb, PackedDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 4, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let mut spec = DbGenSpec::swissprot_like().scaled(0.0001); // ~46 seqs
        spec.homolog_fraction = 0.05;
        let db = generate(&spec, Some(&core), 21);
        (
            MsvProfile::from_profile(&p),
            VitProfile::from_profile(&p),
            db.clone(),
            PackedDb::from_db(&db),
        )
    }

    #[test]
    fn tiered_msv_run_end_to_end() {
        let dev = DeviceSpec::tesla_k40();
        let (msv, _, db, packed) = setup(60);
        let run = run_msv_device(&msv, &packed, &dev, None).unwrap();
        assert_eq!(run.hits.len(), db.len());
        for h in &run.hits {
            let e = msv_filter_scalar(&msv, &db.seqs[h.seqid as usize].residues);
            assert_eq!((h.xj, h.overflow), (e.xj, e.overflow));
        }
        assert!(run.run.time.total_s > 0.0);
        assert!(run.run.imbalance >= 1.0);
        assert!(run.run.occupancy.occupancy > 0.9, "small model, high occ");
    }

    #[test]
    fn tiered_vit_run_end_to_end() {
        let dev = DeviceSpec::tesla_k40();
        let (_, vit, db, packed) = setup(60);
        let run = run_vit_device(&vit, &packed, &dev, None).unwrap();
        for h in &run.hits {
            let e = vit_filter_scalar(&vit, &db.seqs[h.seqid as usize].residues);
            assert_eq!(h.xc, e.xc);
        }
        // §IV: Viterbi occupancy is register-capped at 50%.
        assert!(run.run.occupancy.occupancy <= 0.51);
    }

    #[test]
    fn auto_switch_prefers_shared_small_global_large() {
        // The §IV claim: shared for small models, global beyond a
        // threshold near 1000 for MSV on Kepler.
        let dev = DeviceSpec::tesla_k40();
        let agg = DbAggregates {
            n_seqs: 100_000,
            total_residues: 20_000_000,
            total_words: 3_400_000,
            code_rows: [20_000_000 / 26; 26],
        };
        let small = auto_mem_config(Stage::Msv, 200, &dev, &agg).unwrap();
        assert_eq!(small, MemConfig::Shared);
        let large = auto_mem_config(Stage::Msv, 2405, &dev, &agg).unwrap();
        assert_eq!(large, MemConfig::Global);
    }

    #[test]
    fn grid_never_exceeds_work() {
        let dev = DeviceSpec::tesla_k40();
        let (msv, _, db, packed) = setup(30);
        let run = run_msv_device(&msv, &packed, &dev, Some(MemConfig::Shared)).unwrap();
        assert!(run.run.config.blocks * run.run.config.warps_per_block <= db.len().max(1) * 2);
    }

    /// A background database (nothing overflows) and its aggregates, to
    /// hold the model to a functional launch at the global placement,
    /// whose counts do not depend on the grid size (no per-block
    /// staging).
    fn background(m: usize) -> (Profile, PackedDb, DbAggregates) {
        let core = synthetic_model(m, 6, &BuildParams::default());
        let p = Profile::config(&core, &NullModel::new());
        let db = generate(&DbGenSpec::envnr_like().scaled(0.000005), None, 3);
        let packed = PackedDb::from_db(&db);
        let agg = DbAggregates::from_packed(&packed);
        (p, packed, agg)
    }

    #[test]
    fn model_stage_time_matches_functional_stats_for_msv() {
        let dev = DeviceSpec::tesla_k40();
        let (p, packed, agg) = background(40);
        let msv = MsvProfile::from_profile(&p);
        let functional = run_msv_device(&msv, &packed, &dev, Some(MemConfig::Global)).unwrap();
        let global = MemConfig::Global;
        let (_, stats, _) =
            model_stage_time(Stage::Msv, 40, &dev, global, &agg, &Effort::default()).unwrap();
        assert_eq!(stats, functional.run.stats);
    }

    #[test]
    fn model_stage_time_matches_a_shared_launch_at_the_models_grid() {
        // Shared tables are staged once per block, so the counts depend
        // on the grid: launch at the grid the model assumes, however
        // small the database.
        let dev = DeviceSpec::tesla_k40();
        let (p, packed, agg) = background(40);
        let msv = MsvProfile::from_profile(&p);
        let shared = MemConfig::Shared;
        let (mut cfg, occ) = best_config(Stage::Msv, msv.m, shared, &dev).unwrap();
        cfg.blocks = saturating_grid(&dev, &occ, DEFAULT_WAVES);
        let db = PackedView::from(&packed);
        let kernel = MsvWarpKernel {
            om: &msv,
            db,
            mem: shared,
            layout: smem_layout(Stage::Msv, msv.m, cfg.warps_per_block, shared, &dev),
        };
        let functional = run_grid(&dev, &cfg, &kernel).unwrap();
        let (_, stats, _) =
            model_stage_time(Stage::Msv, 40, &dev, shared, &agg, &Effort::default()).unwrap();
        assert_eq!(stats, functional.stats);
    }

    #[test]
    fn model_stage_time_matches_functional_stats_for_vit() {
        // Lazy-F effort is data-dependent: the launch's measured effort
        // is the model's input, and the counters then agree exactly.
        let dev = DeviceSpec::tesla_k40();
        let (p, packed, agg) = background(40);
        let vit = VitProfile::from_profile(&p);
        let functional = run_vit_device(&vit, &packed, &dev, Some(MemConfig::Global)).unwrap();
        let effort = Effort {
            lazy: Some(functional.lazy),
            ..Effort::default()
        };
        let global = MemConfig::Global;
        let (_, stats, _) =
            model_stage_time(Stage::Viterbi, 40, &dev, global, &agg, &effort).unwrap();
        assert_eq!(stats, functional.run.stats);
    }
}
