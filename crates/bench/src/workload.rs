//! Benchmark workload construction.
//!
//! Each figure point needs (a) a *functional* run on a scaled sample to
//! measure the data-dependent rates (MSV overflow early-exit, Lazy-F
//! effort, stage pass rates) and (b) *aggregates of the full-size
//! database* for the analytic extrapolation (DESIGN.md §4). A [`Workload`]
//! packages both for one (database preset, query model) pair.

use h3w_core::stats_model::DbAggregates;
use h3w_core::tiered::{run_msv_device, run_vit_device};
use h3w_core::vit_warp::WarpLazyStats;
use h3w_core::MemConfig;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::plan7::CoreModel;
use h3w_hmm::vitprofile::VitProfile;
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_seqdb::{PackedDb, SeqDb};
use h3w_simt::DeviceSpec;

/// Database presets of §IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbPreset {
    /// Swiss-Prot: 459,565 seqs / 171.7 M residues, higher homology.
    Swissprot,
    /// Env_nr: 6,549,721 seqs / 1.29 G residues, lower homology.
    Envnr,
}

impl DbPreset {
    /// Display name (as in the figures).
    pub fn name(self) -> &'static str {
        match self {
            DbPreset::Swissprot => "Swissprot",
            DbPreset::Envnr => "Envnr",
        }
    }

    /// Full-scale generator spec.
    pub fn spec(self) -> DbGenSpec {
        match self {
            DbPreset::Swissprot => DbGenSpec::swissprot_like(),
            DbPreset::Envnr => DbGenSpec::envnr_like(),
        }
    }

    /// Sample fraction used for functional measurement runs.
    pub fn sample_fraction(self) -> f64 {
        match self {
            DbPreset::Swissprot => 3e-4, // ≈ 138 seqs / 52 K residues
            DbPreset::Envnr => 4e-5,     // ≈ 262 seqs / 52 K residues
        }
    }
}

/// One (database, model) benchmark workload.
pub struct Workload {
    /// Preset identity.
    pub preset: DbPreset,
    /// Scaled sample for functional runs.
    pub sample: SeqDb,
    /// Packed sample.
    pub packed: PackedDb,
    /// Aggregates of the sample.
    pub sample_agg: DbAggregates,
    /// Sample → full-database scale factor.
    pub scale: f64,
}

impl Workload {
    /// Build the workload for one preset and query model (homologous
    /// fraction embedded per the preset).
    pub fn new(preset: DbPreset, model: &CoreModel, seed: u64) -> Workload {
        let spec = preset.spec().scaled(preset.sample_fraction());
        let sample = generate(&spec, Some(model), seed);
        let packed = PackedDb::from_db(&sample);
        let sample_agg = DbAggregates::from_packed(&packed);
        let full = preset.spec();
        let scale = full.expected_residues() as f64 / sample_agg.total_residues.max(1) as f64;
        Workload {
            preset,
            sample,
            packed,
            sample_agg,
            scale,
        }
    }

    /// Aggregates of the full-size database (extrapolated from the sample).
    pub fn full_agg(&self) -> DbAggregates {
        self.sample_agg.scaled(self.scale)
    }
}

/// Data-dependent rates measured functionally on the sample.
#[derive(Debug, Clone)]
pub struct MeasuredRates {
    /// Fraction of DP rows actually executed by MSV (overflow early-exit).
    pub msv_row_frac: f64,
    /// Fraction of packed words actually fetched by MSV.
    pub msv_word_frac: f64,
    /// Lazy-F effort on the sample (scale per-row for the full database).
    pub lazy: WarpLazyStats,
    /// Fraction of database *residues* belonging to MSV survivors at
    /// HMMER's F1 threshold — sizes the Viterbi stage of the combined
    /// pipeline (Figs. 10–11).
    pub survivor_residue_frac: f64,
}

impl MeasuredRates {
    /// Lazy-F stats extrapolated to `rows` total rows.
    pub fn lazy_scaled(&self, rows: u64) -> WarpLazyStats {
        let f = rows as f64 / self.lazy.rows.max(1) as f64;
        let s = |v: u64| (v as f64 * f).round() as u64;
        WarpLazyStats {
            rows,
            rows_skipped: s(self.lazy.rows_skipped),
            chunks: s(self.lazy.chunks),
            inner_iters: s(self.lazy.inner_iters),
        }
    }
}

/// Measure the rates with functional kernel runs on the sample.
/// `msv_pass` flags which sample sequences survive the MSV filter (from a
/// prepared pipeline); pass all-true to skip the survivor statistic.
pub fn measure_rates(
    msv: &MsvProfile,
    vit: &VitProfile,
    wl: &Workload,
    dev: &DeviceSpec,
    msv_pass: &[bool],
) -> Result<MeasuredRates, String> {
    // Any feasible config measures the same data-dependent behaviour; the
    // global config always fits.
    let global = Some(MemConfig::Global);
    let msv_run = run_msv_device(msv, &wl.packed, dev, global).map_err(|e| e.to_string())?;
    let vit_run = run_vit_device(vit, &wl.packed, dev, global).map_err(|e| e.to_string())?;
    let total_rows = wl.sample_agg.total_residues.max(1);
    let total_words = wl.sample_agg.total_words.max(1);
    // Executed words: recovered from the stats (each word is one uniform
    // DRAM transaction; subtract the per-sequence output writes).
    let exec_words = msv_run
        .run
        .stats
        .gmem_transactions
        .saturating_sub(wl.sample_agg.n_seqs);
    let survivor_residues: u64 = wl
        .sample
        .seqs
        .iter()
        .zip(msv_pass)
        .filter(|&(_, &p)| p)
        .map(|(s, _)| s.len() as u64)
        .sum();
    Ok(MeasuredRates {
        msv_row_frac: msv_run.run.stats.rows as f64 / total_rows as f64,
        msv_word_frac: exec_words as f64 / total_words as f64,
        lazy: vit_run.lazy,
        survivor_residue_frac: survivor_residues as f64 / total_rows as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::profile::Profile;
    use h3w_hmm::NullModel;

    #[test]
    fn workload_scales_to_published_totals() {
        let model = synthetic_model(48, 1, &BuildParams::default());
        for preset in [DbPreset::Swissprot, DbPreset::Envnr] {
            let wl = Workload::new(preset, &model, 5);
            let full = wl.full_agg();
            let expect = preset.spec().expected_residues();
            let err = (full.total_residues as f64 - expect as f64).abs() / expect as f64;
            assert!(
                err < 0.01,
                "{}: {} vs {}",
                preset.name(),
                full.total_residues,
                expect
            );
        }
    }

    #[test]
    fn measured_rates_are_sane() {
        let bg = NullModel::new();
        let model = synthetic_model(60, 2, &BuildParams::default());
        let p = Profile::config(&model, &bg);
        let msv = MsvProfile::from_profile(&p);
        let vit = VitProfile::from_profile(&p);
        let wl = Workload::new(DbPreset::Envnr, &model, 9);
        let pass = vec![false; wl.sample.len()];
        let rates = measure_rates(&msv, &vit, &wl, &DeviceSpec::tesla_k40(), &pass).unwrap();
        assert!(rates.msv_row_frac > 0.9 && rates.msv_row_frac <= 1.0);
        assert!(rates.msv_word_frac > 0.85 && rates.msv_word_frac <= 1.0);
        assert_eq!(rates.lazy.rows, wl.sample_agg.total_residues);
        assert_eq!(rates.survivor_residue_frac, 0.0);
        let scaled = rates.lazy_scaled(10 * rates.lazy.rows);
        assert_eq!(scaled.rows, 10 * rates.lazy.rows);
        assert!(scaled.chunks >= 9 * rates.lazy.chunks);
    }
}
