//! Multi-GPU database partitioning (§IV-A, Fig. 11).
//!
//! "The processing of the sequence database can be easily parallelized
//! across multiple devices without any dependencies" — each device gets a
//! slice of the database, runs the same kernels, and the wall time is the
//! makespan. [`partition`] is the one split, order-preserving
//! round-robin: the recovery engine ([`crate::fault::run_chunks_ft`])
//! uses it for a stage's first split and for a dead device's
//! redistribution alike. It beat a length-balanced split on modelled
//! makespan (EXPERIMENTS.md E22). The functional multi-device sweep is
//! `h3w-pipeline`'s device plan.

use crate::layout::{MemConfig, Stage};
use crate::stats_model::DbAggregates;
use crate::tiered::model_stage_time;
use crate::vit_warp::WarpLazyStats;
use h3w_simt::{DeviceSpec, TimeBreakdown};

/// Split `ids` across `n` devices, order-preserving round-robin: part `k`
/// holds `ids[k]`, `ids[k + n]`, … in their given order. One device gets
/// `ids` unchanged, so a pool of one launches exactly the single-device
/// kernel call; an ascending list splits into ascending parts.
pub fn partition(ids: &[u32], n: usize) -> Vec<Vec<u32>> {
    // Cannot fire from the engine, which rejects an empty pool and
    // redistributes only while a device is alive.
    assert!(n >= 1);
    let mut parts = vec![Vec::with_capacity(ids.len().div_ceil(n)); n];
    for (i, &id) in ids.iter().enumerate() {
        parts[i % n].push(id);
    }
    parts
}

/// Analytic multi-device makespan: split the aggregates evenly across `n`
/// devices and time one share. **Unvalidated.** [`partition`] does not
/// bound the per-device residue skew, so the even split is an assumption;
/// E22 read this prediction at 0.22–0.86 of the functional pool's
/// makespan (the one-device model is already 0.28–0.74 of a functional
/// launch there, which sees the per-warp imbalance this does not).
pub fn model_multi_time(
    stage: Stage,
    m: usize,
    dev: &DeviceSpec,
    agg: &DbAggregates,
    n: usize,
    mem: Option<MemConfig>,
    lazy: Option<&WarpLazyStats>,
) -> Option<TimeBreakdown> {
    // A caller bug: a pool of no devices has no makespan.
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

    #[test]
    fn partition_is_order_preserving_round_robin() {
        assert_eq!(
            partition(&[9, 8, 7, 6, 5], 3),
            vec![vec![9, 6], vec![8, 5], vec![7]]
        );
        assert_eq!(partition(&[1], 3), vec![vec![1], vec![], vec![]]);
        assert_eq!(partition(&[3, 5, 8], 1), vec![vec![3, 5, 8]]);
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
