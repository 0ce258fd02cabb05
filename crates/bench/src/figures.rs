//! Figure-series computation: every quantitative artifact of the paper's
//! evaluation (Figs. 9, 10, 11) as data rows.
//!
//! Method per point (DESIGN.md §4): functional simulation on a scaled
//! sample measures the data-dependent rates; the validated closed-form
//! predictor extrapolates event counts to the full-size database; the
//! occupancy + timing models convert counts to seconds; the CPU model
//! supplies the baseline. Speedups are modeled-GPU vs modeled-CPU — the
//! *shape* (who wins, where the shared/global crossover falls, where the
//! peaks sit) is the reproduction target, not the authors' absolute
//! milliseconds.

use crate::baseline::CpuModel;
use crate::workload::{measure_rates, DbPreset, MeasuredRates, Workload};
use h3w_core::stats_model::DbAggregates;
use h3w_core::{model_stage_time, Effort, MemConfig, Stage};
use h3w_hmm::build::{synthetic_model, BuildParams, PAPER_MODEL_SIZES};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::plan7::CoreModel;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_pipeline::{Pipeline, PipelineConfig};
use h3w_simt::DeviceSpec;

use crate::json::{Json, ToJson};

/// One table-placement configuration's modeled result.
#[derive(Debug, Clone, Copy)]
pub struct ConfigPoint {
    /// Speedup over the CPU baseline.
    pub speedup: f64,
    /// Device occupancy achieved.
    pub occupancy: f64,
    /// Modeled GPU stage time (s).
    pub gpu_time_s: f64,
}

/// One Fig. 9 point: a (database, model size, stage) cell.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Database name.
    pub db: String,
    /// Model size.
    pub m: usize,
    /// `"MSV"` or `"P7Viterbi"`.
    pub stage: String,
    /// Shared-memory configuration (absent when it does not fit).
    pub shared: Option<ConfigPoint>,
    /// Global-memory configuration.
    pub global: Option<ConfigPoint>,
    /// The switch strategy's speedup (best available config).
    pub optimal: f64,
    /// Modeled CPU stage time (s).
    pub cpu_time_s: f64,
}

/// The survivor fraction a combined point models when its sample had no
/// MSV survivor: its Viterbi stage is then next to nothing, and the point
/// times MSV alone.
pub const SURVIVOR_FLOOR: f64 = 1e-6;

/// One Fig. 10/11 point: combined MSV+Viterbi pipeline speedup.
#[derive(Debug, Clone)]
pub struct OverallRow {
    /// Database name.
    pub db: String,
    /// Model size.
    pub m: usize,
    /// Devices used (1 for Fig. 10, 4 for Fig. 11).
    pub n_devices: usize,
    /// Combined-stage speedup over the CPU baseline.
    pub speedup: f64,
    /// GPU MSV / Viterbi / total seconds.
    pub gpu_msv_s: f64,
    pub gpu_vit_s: f64,
    /// CPU MSV / Viterbi / total seconds.
    pub cpu_msv_s: f64,
    pub cpu_vit_s: f64,
    /// Fraction of database residues reaching the Viterbi stage.
    pub survivor_frac: f64,
}

impl ToJson for ConfigPoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("speedup", Json::Num(self.speedup)),
            ("occupancy", Json::Num(self.occupancy)),
            ("gpu_time_s", Json::Num(self.gpu_time_s)),
        ])
    }
}

impl ToJson for Fig9Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("db", Json::Str(self.db.clone())),
            ("m", Json::Num(self.m as f64)),
            ("stage", Json::Str(self.stage.clone())),
            ("shared", self.shared.to_json()),
            ("global", self.global.to_json()),
            ("optimal", Json::Num(self.optimal)),
            ("cpu_time_s", Json::Num(self.cpu_time_s)),
        ])
    }
}

impl ToJson for OverallRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("db", Json::Str(self.db.clone())),
            ("m", Json::Num(self.m as f64)),
            ("n_devices", Json::Num(self.n_devices as f64)),
            ("speedup", Json::Num(self.speedup)),
            ("gpu_msv_s", Json::Num(self.gpu_msv_s)),
            ("gpu_vit_s", Json::Num(self.gpu_vit_s)),
            ("cpu_msv_s", Json::Num(self.cpu_msv_s)),
            ("cpu_vit_s", Json::Num(self.cpu_vit_s)),
            ("survivor_frac", Json::Num(self.survivor_frac)),
        ])
    }
}

/// Everything measured once per (database, model size).
pub struct PreparedPoint {
    /// Query model.
    pub model: CoreModel,
    /// 8-bit tables.
    pub msv: MsvProfile,
    /// 16-bit tables.
    pub vit: VitProfile,
    /// Workload (sample + full aggregates).
    pub workload: Workload,
    /// Measured data-dependent rates.
    pub rates: MeasuredRates,
}

/// Prepare one benchmark point: build model + workload, run the sample
/// pipeline for survivor statistics, measure kernel rates.
pub fn prepare_point(
    preset: DbPreset,
    m: usize,
    dev: &DeviceSpec,
    seed: u64,
) -> Result<PreparedPoint, String> {
    let model = synthetic_model(m, seed, &BuildParams::default());
    let bg = NullModel::new();
    let profile = Profile::config(&model, &bg);
    let msv = MsvProfile::from_profile(&profile);
    let vit = VitProfile::from_profile(&profile);
    let workload = Workload::new(preset, &model, seed ^ 0xdb);
    // MSV pass flags at HMMER's F1 (for the survivor statistic).
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), seed ^ 0xca1);
    let msv_pass: Vec<bool> = workload
        .sample
        .seqs
        .iter()
        .map(|s| {
            let out = pipe.striped_msv.run(&pipe.msv, &s.residues);
            pipe.msv_pvalue(out.score, s.len()) < pipe.config.f1
        })
        .collect();
    let rates = measure_rates(&msv, &vit, &workload, dev, &msv_pass)?;
    Ok(PreparedPoint {
        model,
        msv,
        vit,
        workload,
        rates,
    })
}

/// Modeled GPU stage time on the full database for one configuration:
/// the device-time model with the effort measured on the sample, scaled
/// to `agg`.
pub fn stage_time_full(
    point: &PreparedPoint,
    stage: Stage,
    mem: MemConfig,
    dev: &DeviceSpec,
    agg: &DbAggregates,
) -> Option<ConfigPoint> {
    let rates = &point.rates;
    let effort = Effort {
        msv: Some((
            (agg.total_residues as f64 * rates.msv_row_frac).round() as u64,
            (agg.total_words as f64 * rates.msv_word_frac).round() as u64,
        )),
        lazy: Some(rates.lazy_scaled(agg.total_residues)),
    };
    let (occ, _, t) = model_stage_time(stage, point.model.len(), dev, mem, agg, &effort)?;
    Some(ConfigPoint {
        speedup: 0.0, // filled by the caller against its CPU baseline
        occupancy: occ.occupancy,
        gpu_time_s: t.total_s,
    })
}

/// Compute one Fig. 9 row.
pub fn fig9_row(point: &PreparedPoint, stage: Stage, dev: &DeviceSpec, cpu: &CpuModel) -> Fig9Row {
    let agg = point.workload.full_agg();
    let m = point.model.len();
    let cpu_time_s = match stage {
        Stage::Msv => cpu.msv_time(m, agg.total_residues),
        Stage::Viterbi => cpu.vit_time(m, agg.total_residues),
    };
    let fill = |p: Option<ConfigPoint>| {
        p.map(|mut c| {
            c.speedup = cpu_time_s / c.gpu_time_s;
            c
        })
    };
    let shared = fill(stage_time_full(point, stage, MemConfig::Shared, dev, &agg));
    let global = fill(stage_time_full(point, stage, MemConfig::Global, dev, &agg));
    let optimal = shared
        .iter()
        .chain(global.iter())
        .map(|c| c.speedup)
        .fold(0.0f64, f64::max);
    Fig9Row {
        db: point.workload.preset.name().to_string(),
        m,
        stage: match stage {
            Stage::Msv => "MSV".to_string(),
            Stage::Viterbi => "P7Viterbi".to_string(),
        },
        shared,
        global,
        optimal,
        cpu_time_s,
    }
}

/// Compute one Fig. 10/11 row: combined MSV + Viterbi pipeline, the
/// Viterbi stage sized by the measured MSV survivor fraction, across
/// `n_devices` identical devices (database partitioned, makespan timing).
pub fn overall_row(
    point: &PreparedPoint,
    dev: &DeviceSpec,
    cpu: &CpuModel,
    n_devices: usize,
) -> OverallRow {
    let m = point.model.len();
    let full = point.workload.full_agg();
    let per_dev = full.scaled(1.0 / n_devices as f64);
    let survivor_frac = point.rates.survivor_residue_frac.max(SURVIVOR_FLOOR);
    let survivors_per_dev = per_dev.scaled(survivor_frac);

    let best = |stage: Stage, agg: &DbAggregates| -> f64 {
        [MemConfig::Shared, MemConfig::Global]
            .into_iter()
            .filter_map(|mem| stage_time_full(point, stage, mem, dev, agg))
            .map(|c| c.gpu_time_s)
            .fold(f64::INFINITY, f64::min)
    };
    let gpu_msv_s = best(Stage::Msv, &per_dev);
    let gpu_vit_s = best(Stage::Viterbi, &survivors_per_dev);

    let cpu_msv_s = cpu.msv_time(m, full.total_residues);
    let cpu_vit_s = cpu.vit_time(
        m,
        (full.total_residues as f64 * survivor_frac).round() as u64,
    );
    let speedup = (cpu_msv_s + cpu_vit_s) / (gpu_msv_s + gpu_vit_s);
    OverallRow {
        db: point.workload.preset.name().to_string(),
        m,
        n_devices,
        speedup,
        gpu_msv_s,
        gpu_vit_s,
        cpu_msv_s,
        cpu_vit_s,
        survivor_frac,
    }
}

/// All eight paper model sizes for one preset, prepared (slow: functional
/// sample runs per size). A size that cannot be prepared is an error, not
/// a missing point.
pub fn prepare_series(
    preset: DbPreset,
    dev: &DeviceSpec,
    seed: u64,
) -> Result<Vec<PreparedPoint>, String> {
    PAPER_MODEL_SIZES
        .iter()
        .map(|&m| prepare_point(preset, m, dev, seed + m as u64))
        .collect()
}

/// Render Fig. 9 rows as an aligned text table.
pub fn render_fig9(rows: &[Fig9Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>6} | {:>8} {:>6} | {:>8} {:>6} | {:>8}",
        "db", "stage", "M", "sh-spd", "sh-occ", "gl-spd", "gl-occ", "optimal"
    );
    for r in rows {
        let f = |c: &Option<ConfigPoint>| match c {
            Some(c) => format!("{:>8.2} {:>5.0}%", c.speedup, c.occupancy * 100.0),
            None => format!("{:>8} {:>6}", "-", "-"),
        };
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>6} | {} | {} | {:>8.2}",
            r.db,
            r.stage,
            r.m,
            f(&r.shared),
            f(&r.global),
            r.optimal
        );
    }
    out
}

/// Render Fig. 10/11 rows.
pub fn render_overall(rows: &[OverallRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>5} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
        "db", "M", "gpus", "gpuMSV_s", "gpuVit_s", "cpuMSV_s", "cpuVit_s", "speedup"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>5} | {:>9.3} {:>9.3} | {:>9.2} {:>9.2} | {:>8.2}",
            r.db, r.m, r.n_devices, r.gpu_msv_s, r.gpu_vit_s, r.cpu_msv_s, r.cpu_vit_s, r.speedup
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_point_has_paper_shape_for_msv() {
        // One cheap point: small model, shared config wins, occupancy 100%.
        let dev = DeviceSpec::tesla_k40();
        let cpu = CpuModel::default();
        let point = prepare_point(DbPreset::Envnr, 48, &dev, 400).unwrap();
        let row = fig9_row(&point, Stage::Msv, &dev, &cpu);
        let sh = row.shared.expect("48 fits shared");
        let gl = row.global.expect("global always fits");
        assert!(sh.occupancy > 0.99);
        assert!(sh.speedup > gl.speedup, "shared must win small models");
        assert!(row.optimal >= sh.speedup);
        assert!(sh.speedup > 1.0, "GPU must beat CPU: {}", sh.speedup);
    }

    #[test]
    fn overall_row_combines_stages() {
        let dev = DeviceSpec::tesla_k40();
        let cpu = CpuModel::default();
        let point = prepare_point(DbPreset::Envnr, 100, &dev, 401).unwrap();
        let row = overall_row(&point, &dev, &cpu, 1);
        assert!(row.speedup > 1.0);
        assert!(row.gpu_vit_s < row.gpu_msv_s, "Viterbi sees only survivors");
        assert!(row.survivor_frac < 0.2, "survivors {}", row.survivor_frac);
        // Four Fermi devices must scale the makespan near-linearly.
        let fermi = DeviceSpec::gtx_580();
        let point_f = prepare_point(DbPreset::Envnr, 100, &fermi, 402).unwrap();
        let one = overall_row(&point_f, &fermi, &cpu, 1);
        let four = overall_row(&point_f, &fermi, &cpu, 4);
        let scaling = four.speedup / one.speedup;
        assert!(scaling > 3.0 && scaling < 4.2, "scaling {scaling}");
    }
}
