//! Multi-GPU database partitioning (§IV-A, Fig. 11).
//!
//! "The processing of the sequence database can be easily parallelized
//! across multiple devices without any dependencies" — each device gets a
//! slice of the database, runs the same kernels, and the wall time is the
//! makespan. [`partition`] is the one split, order-preserving
//! round-robin: `h3w-pipeline`'s device pool gives part `k` of each
//! stage's ids to device `k`, one launch each, and times the stage as the
//! slowest launch. It beat a length-balanced split on modelled makespan
//! (EXPERIMENTS.md E22). Fig. 11's four-device numbers are not
//! taken from it: they time an even quarter of the aggregates through
//! [`crate::tiered::model_stage_time`], an assumption [`partition`] does
//! not bound (modelled, unvalidated: E22).

/// Split `ids` across `n` devices, order-preserving round-robin: part `k`
/// holds `ids[k]`, `ids[k + n]`, … in their given order. One device gets
/// `ids` unchanged, so a pool of one launches exactly the single-device
/// kernel call; an ascending list splits into ascending parts.
pub fn partition(ids: &[u32], n: usize) -> Vec<Vec<u32>> {
    // Cannot fire from the device pool, which rejects an empty pool.
    assert!(n >= 1);
    let mut parts = vec![Vec::with_capacity(ids.len().div_ceil(n)); n];
    for (i, &id) in ids.iter().enumerate() {
        parts[i % n].push(id);
    }
    parts
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
}
