//! The CPU-side time model — the denominator of every speedup figure.
//!
//! The paper's baseline is "HMMER 3.0 utilizing multi-core and SSE
//! capabilities on Intel Core i5 quad core ... at 3.4 GHz" (§IV). Its
//! filters are famously throughput-stable in cells/second across model
//! sizes (the striped kernels have no per-model overhead to speak of), so
//! the model is simply `cells / (cores × cells-per-second-per-core)`.
//!
//! The two throughput constants are **fitted within published ranges**:
//! HMMER3's MSVFilter sustains ≈ 10–12 Gcell/s per 3+ GHz core (Eddy 2011
//! reports ~12 on a 2.66 GHz Xeon; the byte pipeline retires ~2 cells per
//! clock per lane-issue) and ViterbiFilter ≈ 2–3 Gcell/s per core (3
//! states, 8 lanes, more arithmetic per cell). We use 11 G and 2.3 G.
//! `cargo bench -p h3w-bench --bench filters` reports what *this* host's
//! Rust implementation actually sustains, recorded in EXPERIMENTS.md next
//! to these constants.

/// Fitted per-core throughput constants (cells/s), see module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Physical cores used by hmmsearch's worker threads (the quad-core
    /// i5 of §IV).
    pub cores: usize,
    /// MSV filter cells/s per core.
    pub msv_cps: f64,
    /// Viterbi filter cells/s per core (a cell = one model column × one
    /// residue; the 3 states are inside the constant).
    pub vit_cps: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            cores: 4,
            msv_cps: 11.0e9,
            vit_cps: 2.3e9,
        }
    }
}

impl CpuModel {
    /// Modeled MSV stage time over `residues` targets for a model of
    /// length `m`.
    pub fn msv_time(&self, m: usize, residues: u64) -> f64 {
        (m as u64 * residues) as f64 / (self.cores as f64 * self.msv_cps)
    }

    /// Modeled Viterbi stage time.
    pub fn vit_time(&self, m: usize, residues: u64) -> f64 {
        (m as u64 * residues) as f64 / (self.cores as f64 * self.vit_cps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_linearly() {
        let c = CpuModel::default();
        let t1 = c.msv_time(400, 1_000_000);
        let t2 = c.msv_time(800, 1_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!(
            c.vit_time(400, 1_000_000) > t1,
            "Viterbi is slower per cell"
        );
    }

    #[test]
    fn envnr_scale_sanity() {
        // Model 400 × Env_nr ≈ 5.2 × 10¹¹ cells ⇒ ~12 s on the quad core —
        // the right order for HMMER3 on that workload.
        let c = CpuModel::default();
        let t = c.msv_time(400, 1_290_247_663);
        assert!(t > 5.0 && t < 30.0, "modeled {t}s");
    }
}
