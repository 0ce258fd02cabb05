//! Database statistics — the workload accounting used by
//! the figure harnesses and the load-balance discussion (§V).

use crate::seq::SeqDb;

/// Summary statistics of a sequence database.
#[derive(Debug, Clone, PartialEq)]
pub struct DbStats {
    /// Number of sequences.
    pub n_seqs: usize,
    /// Total residues (= total DP rows for one model sweep).
    pub total_residues: u64,
    /// Minimum sequence length.
    pub min_len: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Mean sequence length.
    pub mean_len: f64,
    /// Median sequence length.
    pub median_len: usize,
    /// Coefficient of variation of lengths (σ/μ) — the load-imbalance
    /// driver for warp-per-sequence scheduling.
    pub length_cv: f64,
}

/// Compute summary statistics.
pub fn db_stats(db: &SeqDb) -> DbStats {
    let mut lens: Vec<usize> = db.seqs.iter().map(|s| s.len()).collect();
    lens.sort_unstable();
    let n = lens.len();
    if n == 0 {
        return DbStats {
            n_seqs: 0,
            total_residues: 0,
            min_len: 0,
            max_len: 0,
            mean_len: 0.0,
            median_len: 0,
            length_cv: 0.0,
        };
    }
    let total: u64 = lens.iter().map(|&l| l as u64).sum();
    let mean = total as f64 / n as f64;
    let var = lens
        .iter()
        .map(|&l| {
            let d = l as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    DbStats {
        n_seqs: n,
        total_residues: total,
        min_len: lens[0],
        max_len: lens[n - 1],
        mean_len: mean,
        median_len: lens[n / 2],
        length_cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DigitalSeq;

    fn db_of_lengths(lens: &[usize]) -> SeqDb {
        let mut db = SeqDb::new("t");
        for (i, &l) in lens.iter().enumerate() {
            db.seqs.push(DigitalSeq {
                name: format!("s{i}"),
                desc: String::new(),
                residues: vec![0; l],
            });
        }
        db
    }

    #[test]
    fn stats_basics() {
        let db = db_of_lengths(&[10, 20, 30, 40]);
        let st = db_stats(&db);
        assert_eq!(st.n_seqs, 4);
        assert_eq!(st.total_residues, 100);
        assert_eq!(st.min_len, 10);
        assert_eq!(st.max_len, 40);
        assert!((st.mean_len - 25.0).abs() < 1e-12);
        assert_eq!(st.median_len, 30);
        let sigma = (((10f64 - 25.).powi(2)
            + (20f64 - 25.).powi(2)
            + (30f64 - 25.).powi(2)
            + (40f64 - 25.).powi(2))
            / 4.0)
            .sqrt();
        assert!((st.length_cv - sigma / 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_db_stats_are_zero() {
        let st = db_stats(&SeqDb::new("e"));
        assert_eq!(st.n_seqs, 0);
        assert_eq!(st.length_cv, 0.0);
    }
}
