//! Closed-form event-count prediction for the warp kernels.
//!
//! The figure harnesses must report full-scale workloads (Env_nr is 1.29 G
//! residues; model 2405 × Env_nr is ~3 × 10¹² DP cells), far beyond what
//! the functional simulator can execute. This module predicts the exact
//! [`KernelStats`] a launch would produce from database aggregates — and a
//! test in this file proves the prediction **equal** to the functional
//! counters on scaled databases, for both stages, both memory configs and
//! both architectures. Extrapolation is then a change of aggregates, not a
//! change of model.
//!
//! Data-dependent effort (MSV overflow early-exit, Lazy-F iterations) is
//! an explicit input, measured on a statistically identical scaled
//! database and scaled per-row.

use crate::layout::{MemConfig, GM_EMIS_BASE, GM_TRANS_BASE};
use crate::msv_warp::{MSV_ALU_PER_ITER, MSV_ALU_PER_ROW, MSV_ALU_PER_SEQ};
use crate::vit_warp::{
    WarpLazyStats, VIT_ALU_PER_ITER, VIT_ALU_PER_LAZY_ITER, VIT_ALU_PER_ROW, VIT_ALU_PER_SEQ,
};
use h3w_seqdb::{PackedView, RESIDUES_PER_WORD};
use h3w_simt::device::GMEM_SEGMENT;
use h3w_simt::{DeviceSpec, KernelStats, WARP_SIZE};

/// Database aggregates the predictor consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct DbAggregates {
    /// Sequence count.
    pub n_seqs: u64,
    /// Total residues (= DP rows without early exit).
    pub total_residues: u64,
    /// Total packed words, `Σ ⌈len/6⌉`.
    pub total_words: u64,
    /// Rows per residue code (composition; drives global-config emission
    /// coalescing).
    pub code_rows: [u64; 26],
}

impl DbAggregates {
    /// Exact aggregates of a packed database (or zero-copy subset view).
    pub fn from_packed<'a>(db: impl Into<PackedView<'a>>) -> DbAggregates {
        let db = db.into();
        let mut code_rows = [0u64; 26];
        let mut total_words = 0u64;
        for s in 0..db.n_seqs() {
            total_words += (db.lengths[s] as u64).div_ceil(RESIDUES_PER_WORD as u64);
            for r in db.iter_seq(s) {
                code_rows[r as usize] += 1;
            }
        }
        DbAggregates {
            n_seqs: db.n_seqs() as u64,
            total_residues: db.total_residues(),
            total_words,
            code_rows,
        }
    }

    /// Scale to a database `f×` the size (same length/composition
    /// distributions) — the extrapolation step.
    pub fn scaled(&self, f: f64) -> DbAggregates {
        let s = |v: u64| (v as f64 * f).round() as u64;
        let mut code_rows = [0u64; 26];
        for (o, &v) in code_rows.iter_mut().zip(&self.code_rows) {
            *o = s(v);
        }
        DbAggregates {
            n_seqs: s(self.n_seqs),
            total_residues: s(self.total_residues),
            total_words: s(self.total_words),
            code_rows,
        }
    }
}

/// Segments touched by a warp reading `n` consecutive `width`-byte
/// elements at byte offset `off` (mirrors `SimtCtx::gmem_access`).
fn segments(off: usize, n: usize, width: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let first = off / GMEM_SEGMENT;
    let last = (off + n * width - 1) / GMEM_SEGMENT;
    (last - first + 1) as u64
}

/// Global-config transactions for one full-row table sweep (all chunks) of
/// a table starting at global offset `base`, elements of `width` bytes.
fn row_sweep_segments(base: usize, m: usize, width: usize) -> u64 {
    let mut total = 0u64;
    let mut j = 0usize;
    while j * WARP_SIZE < m {
        let c = (m - j * WARP_SIZE).min(WARP_SIZE);
        total += segments(base + j * WARP_SIZE * width, c, width);
        j += 1;
    }
    total
}

/// Launch-shape inputs shared by both predictors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaunchShape {
    /// Table placement.
    pub mem: MemConfig,
    /// Grid blocks (staging repeats per block).
    pub blocks: u64,
    /// Kepler shuffle reductions vs Fermi shared-memory fallback: a fact
    /// of the device, as in [`h3w_simt::SimtCtx::warp_reduce`].
    use_shfl: bool,
}

impl LaunchShape {
    /// The shape of a `blocks`-block launch on `dev` with tables in `mem`.
    pub(crate) fn new(dev: &DeviceSpec, mem: MemConfig, blocks: u64) -> LaunchShape {
        LaunchShape {
            mem,
            blocks,
            use_shfl: dev.has_shfl,
        }
    }
}

/// Predict the MSV kernel's counters.
///
/// `executed_rows`/`executed_words` account for the overflow early-exit
/// (equal to `agg.total_residues`/`agg.total_words` when nothing
/// overflows); `overflowed` rows keep their composition assumption only in
/// the global config, where a few-percent error is accepted and
/// documented.
pub(crate) fn predict_msv(
    m: usize,
    shape: &LaunchShape,
    agg: &DbAggregates,
    executed_rows: u64,
    executed_words: u64,
) -> KernelStats {
    let iters = m.div_ceil(WARP_SIZE) as u64;
    let mut s = KernelStats {
        rows: executed_rows,
        sequences: agg.n_seqs,
        ..Default::default()
    };

    // Per row.
    s.smem_loads += executed_rows * iters; // double-buffered dependencies
    s.smem_stores += executed_rows * iters;
    s.instructions += executed_rows * (MSV_ALU_PER_ROW + iters * MSV_ALU_PER_ITER);
    match shape.mem {
        MemConfig::Shared => s.smem_loads += executed_rows * iters, // emission
        MemConfig::Global => {
            s.instructions += executed_rows * iters; // LD instructions
                                                     // L2 transactions by residue composition (row counts per code,
                                                     // truncated uniformly by the executed fraction).
            let frac = if agg.total_residues == 0 {
                0.0
            } else {
                executed_rows as f64 / agg.total_residues as f64
            };
            let mut tx = 0f64;
            for (code, &rows) in agg.code_rows.iter().enumerate() {
                let per_row = row_sweep_segments(GM_EMIS_BASE + code * m, m, 1);
                tx += rows as f64 * frac * per_row as f64;
            }
            s.l2_transactions += tx.round() as u64;
        }
    }
    // Row maximum reduction.
    if shape.use_shfl {
        s.shuffles += executed_rows * 5;
        s.instructions += executed_rows * 5;
    } else {
        s.smem_loads += executed_rows * 5;
        s.smem_stores += executed_rows * 5;
        s.instructions += executed_rows * 5;
    }

    // Packed-residue words (uniform 4-byte reads, never straddling).
    s.instructions += executed_words;
    s.gmem_transactions += executed_words;

    // Per sequence: row zeroing, bookkeeping, result write.
    let zero_chunks = (m + 1).div_ceil(WARP_SIZE) as u64;
    s.smem_stores += agg.n_seqs * zero_chunks;
    s.instructions += agg.n_seqs * (MSV_ALU_PER_SEQ + 2 + 1);
    s.gmem_transactions += agg.n_seqs;

    // Per launch: table staging + publish barrier (shared config).
    if shape.mem == MemConfig::Shared {
        let mut stage_tx = 0u64;
        let chunks = m.div_ceil(WARP_SIZE) as u64;
        for code in 0..crate::layout::STAGED_CODES {
            stage_tx += row_sweep_segments(GM_EMIS_BASE + code * m, m, 1);
        }
        let stage_chunks = crate::layout::STAGED_CODES as u64 * chunks;
        s.gmem_transactions += shape.blocks * stage_tx;
        s.smem_stores += shape.blocks * stage_chunks;
        s.instructions += shape.blocks * stage_chunks * 2; // LD instr + ALU
        s.barriers += shape.blocks;
    }

    s.gmem_bytes = s.gmem_transactions * GMEM_SEGMENT as u64;
    s.l2_bytes = s.l2_transactions * GMEM_SEGMENT as u64;
    s
}

/// Predict the P7Viterbi kernel's counters. `lazy` carries the measured
/// (or scaled) Lazy-F effort; its `rows` must equal `agg.total_residues`.
pub(crate) fn predict_vit(
    m: usize,
    shape: &LaunchShape,
    agg: &DbAggregates,
    lazy: &WarpLazyStats,
) -> KernelStats {
    let iters = m.div_ceil(WARP_SIZE) as u64;
    let rows = agg.total_residues;
    let mut s = KernelStats {
        rows,
        sequences: agg.n_seqs,
        ..Default::default()
    };

    // Main pass per row: 3 dep preloads + 2 old-M/I + 1 D-seed source per
    // chunk; 3 stores per chunk.
    s.smem_loads += rows * iters * 6;
    s.smem_stores += rows * iters * 3;
    s.instructions += rows * (VIT_ALU_PER_ROW + iters * VIT_ALU_PER_ITER + 6);
    // Emission + 7 transition chunks per iteration.
    match shape.mem {
        MemConfig::Shared => s.smem_loads += rows * iters * 8,
        MemConfig::Global => {
            s.instructions += rows * iters * 8;
            let mut tx = 0f64;
            for (code, &r) in agg.code_rows.iter().enumerate() {
                tx += r as f64 * row_sweep_segments(GM_EMIS_BASE + code * m * 2, m, 2) as f64;
            }
            // Seven transition sweeps per row, composition-independent.
            let mut trans_tx = 0u64;
            for tab in [0usize, 1, 2, 3, 5, 6, 7] {
                trans_tx += row_sweep_segments(GM_TRANS_BASE + tab * m * 2, m, 2);
            }
            s.l2_transactions += tx.round() as u64 + rows * trans_tx;
        }
    }
    // Two reductions (xE, Dmax) per row.
    if shape.use_shfl {
        s.shuffles += rows * 10;
        s.instructions += rows * 10;
    } else {
        s.smem_loads += rows * 10;
        s.smem_stores += rows * 10;
        s.instructions += rows * 10;
    }

    // Lazy-F: per visited chunk 1 tdd read + 1 own read; per inner
    // iteration 1 left read + 1 vote + ALU; one store per non-final
    // iteration.
    s.smem_loads += lazy.chunks + lazy.inner_iters;
    match shape.mem {
        MemConfig::Shared => s.smem_loads += lazy.chunks,
        MemConfig::Global => {
            s.instructions += lazy.chunks;
            let tdd_row = row_sweep_segments(GM_TRANS_BASE + 4 * m * 2, m, 2);
            let visited_rows = lazy.rows - lazy.rows_skipped;
            s.l2_transactions += visited_rows * tdd_row;
        }
    }
    s.votes += lazy.inner_iters;
    s.instructions += lazy.inner_iters * VIT_ALU_PER_LAZY_ITER;
    s.smem_stores += lazy.inner_iters - lazy.chunks.min(lazy.inner_iters);

    // Packed residue words.
    s.instructions += agg.total_words;
    s.gmem_transactions += agg.total_words;

    // Per sequence: 3 rows zeroed, bookkeeping, result write.
    let zero_chunks = (m + 1).div_ceil(WARP_SIZE) as u64;
    s.smem_stores += agg.n_seqs * 3 * zero_chunks;
    s.instructions += agg.n_seqs * (VIT_ALU_PER_SEQ + 2 + 1);
    s.gmem_transactions += agg.n_seqs;

    // Staging (emissions + 8 transition tables) + publish barrier.
    if shape.mem == MemConfig::Shared {
        let chunks = m.div_ceil(WARP_SIZE) as u64;
        let mut stage_tx = 0u64;
        for code in 0..crate::layout::STAGED_CODES {
            stage_tx += row_sweep_segments(GM_EMIS_BASE + code * m * 2, m, 2);
        }
        for tab in 0..8 {
            stage_tx += row_sweep_segments(GM_TRANS_BASE + tab * m * 2, m, 2);
        }
        let stage_chunks = (crate::layout::STAGED_CODES as u64 + 8) * chunks;
        s.gmem_transactions += shape.blocks * stage_tx;
        s.smem_stores += shape.blocks * stage_chunks;
        s.instructions += shape.blocks * stage_chunks * 2;
        s.barriers += shape.blocks;
    }

    s.gmem_bytes = s.gmem_transactions * GMEM_SEGMENT as u64;
    s.l2_bytes = s.l2_transactions * GMEM_SEGMENT as u64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{best_config, smem_layout, Stage};
    use crate::msv_warp::MsvWarpKernel;
    use crate::vit_warp::VitWarpKernel;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::msvprofile::MsvProfile;
    use h3w_hmm::profile::Profile;
    use h3w_hmm::vitprofile::VitProfile;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;
    use h3w_simt::{run_grid, DeviceSpec};

    fn setup(m: usize) -> (MsvProfile, VitProfile, PackedDb) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 5, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        // Pure background DB: no MSV overflow, so executed == total.
        let spec = DbGenSpec::envnr_like().scaled(0.000008);
        let db = generate(&spec, None, 77);
        (
            MsvProfile::from_profile(&p),
            VitProfile::from_profile(&p),
            PackedDb::from_db(&db),
        )
    }

    #[test]
    fn msv_prediction_is_exact() {
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            for mem in [MemConfig::Shared, MemConfig::Global] {
                for m in [20usize, 70] {
                    let (om, _, packed) = setup(m);
                    let (mut cfg, _) = best_config(Stage::Msv, m, mem, &dev).unwrap();
                    cfg.blocks = 2;
                    let layout = smem_layout(Stage::Msv, m, cfg.warps_per_block, mem, &dev);
                    let kernel = MsvWarpKernel {
                        om: &om,
                        db: packed.view(),
                        mem,
                        layout,
                    };
                    let r = run_grid(&dev, &cfg, &kernel).unwrap();
                    assert!(
                        r.outputs.iter().flatten().all(|h| !h.overflow),
                        "background DB must not overflow"
                    );
                    let agg = DbAggregates::from_packed(&packed);
                    let shape = LaunchShape::new(&dev, mem, cfg.blocks as u64);
                    let pred = predict_msv(m, &shape, &agg, agg.total_residues, agg.total_words);
                    assert_eq!(pred, r.stats, "{} {:?} m={m}", dev.name, mem);
                }
            }
        }
    }

    #[test]
    fn vit_prediction_is_exact() {
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            for mem in [MemConfig::Shared, MemConfig::Global] {
                let m = 50usize;
                let (_, om, packed) = setup(m);
                let (mut cfg, _) = best_config(Stage::Viterbi, m, mem, &dev).unwrap();
                cfg.blocks = 2;
                let layout = smem_layout(Stage::Viterbi, m, cfg.warps_per_block, mem, &dev);
                let kernel = VitWarpKernel {
                    om: &om,
                    db: packed.view(),
                    mem,
                    layout,
                };
                let r = run_grid(&dev, &cfg, &kernel).unwrap();
                let mut lazy = WarpLazyStats::default();
                for (_, l) in &r.outputs {
                    lazy.merge(l);
                }
                let agg = DbAggregates::from_packed(&packed);
                let shape = LaunchShape::new(&dev, mem, cfg.blocks as u64);
                let pred = predict_vit(m, &shape, &agg, &lazy);
                assert_eq!(pred, r.stats, "{} {:?}", dev.name, mem);
            }
        }
    }

    #[test]
    fn aggregates_scale_linearly() {
        let (_, _, packed) = setup(30);
        let agg = DbAggregates::from_packed(&packed);
        let doubled = agg.scaled(2.0);
        assert_eq!(doubled.n_seqs, 2 * agg.n_seqs);
        assert_eq!(doubled.total_residues, 2 * agg.total_residues);
        assert_eq!(
            doubled.code_rows.iter().sum::<u64>(),
            2 * agg.code_rows.iter().sum::<u64>()
        );
    }

    #[test]
    fn segments_helper() {
        assert_eq!(segments(0, 32, 1), 1);
        assert_eq!(segments(100, 32, 1), 2); // 100..131 straddles
        assert_eq!(segments(0, 32, 2), 1); // 64 bytes
        assert_eq!(segments(96, 32, 2), 2);
        assert_eq!(segments(0, 0, 1), 0);
        assert_eq!(row_sweep_segments(0, 64, 1), 2); // two aligned chunks in one segment? 0..31,32..63 → both in segment 0 ⇒ 1+1
    }
}
