//! Multi-GPU database partitioning (§IV-A, Fig. 11).
//!
//! "The processing of the sequence database can be easily parallelized
//! across multiple devices without any dependencies" — each device gets a
//! slice of the database, runs the same kernels, and the wall time is the
//! makespan. Partitioning is round-robin over length-sorted sequences so
//! per-device residue totals stay balanced. The functional multi-device
//! sweep is `h3w-pipeline`'s `ExecPlan::FaultTolerant`, which partitions
//! each stage's survivors with [`partition_id_slice`] and runs them
//! through [`crate::fault::run_chunks_ft`].

use crate::layout::{MemConfig, Stage};
use crate::stats_model::DbAggregates;
use crate::tiered::model_stage_time;
use crate::vit_warp::WarpLazyStats;
use h3w_seqdb::PackedDb;
use h3w_simt::{DeviceSpec, TimeBreakdown};

/// Split the listed sequences (`ids`, parent ids into `packed`) across
/// `n` devices: length-sorted round-robin, which bounds the per-device
/// residue skew by one max-length sequence. Returns parent-id lists for
/// [`PackedDb::subset`], so no sequence is copied; the fault-tolerant
/// pipeline partitions each stage's **survivor set** this way.
pub fn partition_id_slice(packed: &PackedDb, ids: &[u32], n: usize) -> Vec<Vec<u32>> {
    assert!(n >= 1);
    let mut order: Vec<u32> = ids.to_vec();
    // Longest first, ties by original position.
    order.sort_by_key(|&i| (std::cmp::Reverse(packed.lengths[i as usize]), i));
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (rank, &idx) in order.iter().enumerate() {
        parts[rank % n].push(idx);
    }
    parts
}

/// Analytic multi-device makespan: split the aggregates evenly (the
/// length-sorted round-robin guarantee) and take the slowest device.
pub fn model_multi_time(
    stage: Stage,
    m: usize,
    dev: &DeviceSpec,
    agg: &DbAggregates,
    n: usize,
    mem: Option<MemConfig>,
    lazy: Option<&WarpLazyStats>,
) -> Option<TimeBreakdown> {
    assert!(n >= 1);
    let part = agg.scaled(1.0 / n as f64);
    let scaled_lazy = lazy.map(|l| WarpLazyStats {
        rows: l.rows / n as u64,
        rows_skipped: l.rows_skipped / n as u64,
        chunks: l.chunks / n as u64,
        inner_iters: l.inner_iters / n as u64,
    });
    model_stage_time(stage, m, dev, &part, mem, scaled_lazy.as_ref()).map(|(_, _, _, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_seqdb::gen::{generate, DbGenSpec};

    #[test]
    fn partition_balances_residues() {
        let core = synthetic_model(30, 9, &BuildParams::default());
        let db = generate(&DbGenSpec::envnr_like().scaled(0.00001), Some(&core), 55);
        let packed = PackedDb::from_db(&db);
        let all: Vec<u32> = (0..db.len() as u32).collect();
        let parts = partition_id_slice(&packed, &all, 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), db.len());
        let totals: Vec<u64> = parts
            .iter()
            .map(|p| p.iter().map(|&i| db.seqs[i as usize].len() as u64).sum())
            .collect();
        let max = *totals.iter().max().unwrap() as f64;
        let min = *totals.iter().min().unwrap() as f64;
        assert!(max / min < 1.15, "residue skew too high: {totals:?}");
    }

    #[test]
    fn four_devices_scale_near_linearly() {
        // §IV-A: "expected speedup gained via multi-GPU implementation is
        // almost linear". Analytic path on a large workload.
        let dev = DeviceSpec::gtx_580();
        let agg = DbAggregates {
            n_seqs: 1_000_000,
            total_residues: 200_000_000,
            total_words: 34_000_000,
            code_rows: [200_000_000 / 26; 26],
        };
        let t1 = model_multi_time(Stage::Msv, 400, &dev, &agg, 1, None, None)
            .unwrap()
            .total_s;
        let t4 = model_multi_time(Stage::Msv, 400, &dev, &agg, 4, None, None)
            .unwrap()
            .total_s;
        let scaling = t1 / t4;
        assert!(
            scaling > 3.6 && scaling <= 4.05,
            "4-device scaling {scaling}"
        );
    }
}
