//! `reproduce` — the paper's record (EXPERIMENTS.md E1–E10), one
//! experiment or all of them, through one entry point.
//!
//! Usage: `cargo run --release -p h3w-bench --bin reproduce -- <E1…E10|all>...
//! [--out DIR]`
//!
//! Each experiment writes its text to `DIR/<file>.txt` (`DIR` defaults to
//! `results/`), and E2–E4 their rows to `DIR/<file>.json`, then the text
//! goes to stdout. Every file goes through a temporary and a rename, so a
//! failed run leaves nothing partial. Each device series is prepared once
//! per run: the K40 series (Fig. 9's seed) feeds Figs. 9 and 10, the Fermi
//! series (Fig. 11's seed) feeds Fig. 11, and the headline numbers (E9)
//! are the maxima of those three figures' rows. Progress goes to stderr.

use h3w_bench::error::{check, write_atomic, HarnessError};
use h3w_bench::figures::{
    fig9_row, overall_row, prepare_series, render_fig9, render_overall, Fig9Row, OverallRow,
    PreparedPoint, SURVIVOR_FLOOR,
};
use h3w_bench::json::{pretty_rows, ToJson};
use h3w_bench::{CpuModel, DbPreset};
use h3w_core::dd_prefix::{lazy_f_resolve, prefix_resolve, scalar_resolve};
use h3w_core::layout::{best_config, smem_layout};
use h3w_core::msv_warp::MsvWarpKernel;
use h3w_core::naive::NaiveMsvKernel;
use h3w_core::tiered::{run_msv_device, run_vit_device};
use h3w_core::{MemConfig, MsvHit, Stage};
use h3w_cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
use h3w_cpu::reference::{msv_filter_model, viterbi_filter_model};
use h3w_hmm::build::{pfam_size_sample, synthetic_model, BuildParams, PFAM_N_FAMILIES};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_pipeline::{ExecPlan, Pipeline, PipelineConfig};
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_seqdb::PackedDb;
use h3w_simt::{kernel_time, occupancy, run_grid, run_grid_blocks, DeviceSpec, KernelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::path::PathBuf;

/// An experiment's text, and its rows as JSON for E2–E4.
type Output = (String, Option<String>);
/// An experiment's number, the name of its files under `DIR`, the device
/// series it reads, and its run on the K40 and the Fermi series.
type Experiment = (
    &'static str,
    &'static str,
    u8,
    fn(&[PreparedPoint], &[PreparedPoint]) -> Result<Output, HarnessError>,
);

/// The device series an experiment reads, as bits.
const K40: u8 = 1;
const FERMI: u8 = 2;

/// Every experiment, in E order.
const EXPERIMENTS: [Experiment; 10] = [
    ("E1", "fig1", 0, |_, _| text(fig1()?)),
    ("E2", "fig9", K40, |k40, _| {
        with_json(fig9_rows(k40), fig9_text)
    }),
    ("E3", "fig10", K40, |k40, _| {
        with_json(fig10_rows(k40), fig10_text)
    }),
    ("E4", "fig11", FERMI, |_, fermi| {
        with_json(fig11_rows(fermi), fig11_text)
    }),
    ("E5", "pfam", 0, |_, _| text(pfam_sizes())),
    ("E6", "ablation_sync", 0, |_, _| text(ablation_sync()?)),
    ("E7", "ablation_memory", 0, |_, _| text(ablation_memory())),
    ("E8", "ablation_lazyf", 0, |_, _| text(ablation_lazyf()?)),
    ("E9", "headline", K40 | FERMI, |k40, fermi| {
        let peaks = headline(&fig9_rows(k40), &fig10_rows(k40), &fig11_rows(fermi));
        text(headline_text(&peaks))
    }),
    ("E10", "accuracy", 0, |_, _| text(accuracy()?)),
];

/// The series seeds: Fig. 9's for the K40, Fig. 11's for the GTX 580.
const K40_SEED: u64 = 0x9f17;
const FERMI_SEED: u64 = 0xf1911;
/// E1's Env_nr sample (≈ 19.6 K sequences at model size 400).
const FIG1_SCALE: f64 = 0.003;
/// The model sizes of E6/E7 and of E10.
const ABLATION_M: usize = 200;
const ACCURACY_M: usize = 120;

/// `println!` into a `String`.
macro_rules! outln {
    ($out:expr) => { $out.push('\n') };
    ($out:expr, $($fmt:tt)*) => {{
        let _ = writeln!($out, $($fmt)*);
    }};
}

fn main() -> Result<(), HarnessError> {
    let (which, dir) = parse_args(std::env::args().skip(1))?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot write {}: {e}", dir.display()))?;
    // A series no requested experiment reads stays empty.
    let needs = |series: u8| which.iter().any(|(_, _, reads, _)| reads & series != 0);
    let k40 = series(needs(K40), &DeviceSpec::tesla_k40(), K40_SEED)?;
    let fermi = series(needs(FERMI), &DeviceSpec::gtx_580(), FERMI_SEED)?;
    for (num, file, _, run) in which {
        eprintln!("{num}: {file}");
        let (txt, json) = run(&k40, &fermi)?;
        write_atomic(&dir.join(format!("{file}.txt")), &txt)?;
        if let Some(json) = json {
            write_atomic(&dir.join(format!("{file}.json")), &json)?;
        }
        print!("{txt}");
    }
    Ok(())
}

/// The experiments asked for (rows of [`EXPERIMENTS`], in E order) and the
/// output directory.
fn parse_args(
    argv: impl Iterator<Item = String>,
) -> Result<(Vec<Experiment>, PathBuf), HarnessError> {
    let usage = |msg: String| format!("{msg}; usage: reproduce <E1…E10|all>... [--out DIR]");
    let (mut which, mut dir) = (Vec::new(), PathBuf::from("results"));
    let mut argv = argv;
    while let Some(arg) = argv.next() {
        if arg == "--out" {
            dir = argv
                .next()
                .ok_or_else(|| usage("--out needs a directory".into()))?
                .into();
        } else if arg == "all" {
            which.extend(0..EXPERIMENTS.len());
        } else if let Some(i) = EXPERIMENTS.iter().position(|(num, ..)| *num == arg) {
            which.push(i);
        } else {
            return Err(usage(format!("unknown experiment '{arg}'")).into());
        }
    }
    which.sort_unstable();
    which.dedup();
    if which.is_empty() {
        return Err(usage("no experiment named".into()).into());
    }
    Ok((which.into_iter().map(|i| EXPERIMENTS[i]).collect(), dir))
}

/// Both databases' eight model sizes on `dev`, Swissprot first; none
/// unless `needed`.
fn series(needed: bool, dev: &DeviceSpec, seed: u64) -> Result<Vec<PreparedPoint>, HarnessError> {
    let mut points = Vec::new();
    if !needed {
        return Ok(points);
    }
    for preset in [DbPreset::Swissprot, DbPreset::Envnr] {
        eprintln!("preparing {} series on {}...", preset.name(), dev.name);
        points.extend(prepare_series(preset, dev, seed)?);
    }
    Ok(points)
}

/// An experiment's text alone.
fn text(txt: String) -> Result<Output, HarnessError> {
    Ok((txt, None))
}

/// An experiment's text from its rows, and the rows as JSON.
fn with_json<R: ToJson>(rows: Vec<R>, text: fn(&[R]) -> String) -> Result<Output, HarnessError> {
    Ok((text(&rows), Some(pretty_rows(&rows))))
}

/// E1 — Figure 1: the hmmsearch funnel and time split at model size 400
/// on Env_nr. Paper: 2.2% of sequences pass MSV, 0.1% pass P7Viterbi,
/// time split 80.6 / 14.5 / 4.9%.
fn fig1() -> Result<String, HarnessError> {
    let model = synthetic_model(400, 0xf161, &BuildParams::default());
    eprintln!("preparing pipeline (model size 400, calibration)...");
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 0xca1);
    let spec = DbPreset::Envnr.spec().scaled(FIG1_SCALE);
    eprintln!("generating {} ({} sequences)...", spec.name, spec.n_seqs);
    let res = pipe.search(&generate(&spec, Some(&model), 0xdb1), &ExecPlan::Cpu)?;
    let mut o = String::from("=== Figure 1: HMMER3 task pipeline ===\n");
    o.push_str(&res.render());
    let ([_, msv, vit], [t_msv, t_vit, t_fwd]) = (res.funnel(), res.time_fractions());
    outln!(o, "\nmeasured vs paper (model 400, Env_nr):");
    for (what, pct, paper) in [("pass MSV    ", msv, " 2.2"), ("pass Viterbi", vit, " 0.1")] {
        outln!(o, "  {what}  : {:>6.2}%   (paper {paper}%)", pct * 100.0);
    }
    for (what, pct, paper) in [
        ("time MSV    ", t_msv, "80.6"),
        ("time Viterbi", t_vit, "14.5"),
        ("time Forward", t_fwd, " 4.9"),
    ] {
        outln!(o, "  {what}  : {:>6.1}%   (paper {paper}%)", pct * 100.0);
    }
    // The wall-clock split above is this host's; Fig. 1's is HMMER3's
    // stage throughputs on the paper's CPU. Recompute the split from the
    // measured funnel at HMMER3's canonical per-stage rates (MSV ≈ 12,
    // ViterbiFilter ≈ 2, Forward ≈ 0.15 Gcells/s/core — Eddy 2011).
    let rates = [12.0e9, 2.0e9, 0.15e9];
    let cells = res.stages.iter().map(|st| 400.0 * st.residues_in as f64);
    let times: Vec<f64> = cells.zip(rates).map(|(c, r)| c / r).collect();
    let pct: Vec<f64> = times
        .iter()
        .map(|t| t / times.iter().sum::<f64>() * 100.0)
        .collect();
    outln!(
        o,
        "\ntime split at HMMER3 stage throughputs (the Fig. 1 quantity):"
    );
    outln!(
        o,
        "  MSV {:>5.1}% (paper 80.6%)   P7Viterbi {:>5.1}% (paper 14.5%)   Forward {:>5.1}% (paper 4.9%)",
        pct[0],
        pct[1],
        pct[2]
    );
    Ok(o)
}

/// E2 — Figure 9's rows: per-stage speedup and occupancy, both
/// databases, shared vs global tables, on the K40.
fn fig9_rows(k40: &[PreparedPoint]) -> Vec<Fig9Row> {
    let (dev, cpu) = (DeviceSpec::tesla_k40(), CpuModel::default());
    let mut rows = Vec::new();
    for preset in [DbPreset::Swissprot, DbPreset::Envnr] {
        for stage in [Stage::Msv, Stage::Viterbi] {
            for p in k40.iter().filter(|p| p.workload.preset == preset) {
                rows.push(fig9_row(p, stage, &dev, &cpu));
            }
        }
    }
    rows
}

fn fig9_text(rows: &[Fig9Row]) -> String {
    format!(
        "=== Figure 9: stage speedup & occupancy on Tesla K40 ===\n{}\n\
         paper shape targets: MSV peak 5.0-5.4x near M=800, crossover ~1002, \
         100% occ below 400; Viterbi peak ~2.9x at 50% occ, decaying past 200\n",
        render_fig9(rows)
    )
}

/// E3 — Figure 10's rows: the combined MSV + P7Viterbi speedup on one
/// K40, from the same series as Fig. 9.
fn fig10_rows(k40: &[PreparedPoint]) -> Vec<OverallRow> {
    let (dev, cpu) = (DeviceSpec::tesla_k40(), CpuModel::default());
    k40.iter().map(|p| overall_row(p, &dev, &cpu, 1)).collect()
}

fn fig10_text(rows: &[OverallRow]) -> String {
    let (sp, env) = (
        max_speedup(rows, Some("Swissprot"), 1),
        max_speedup(rows, Some("Envnr"), 1),
    );
    format!(
        "=== Figure 10: overall MSV+Viterbi speedup on Tesla K40 ===\n{}\n\
         maxima: Swissprot {sp:.2}x (paper 3.0x), Envnr {env:.2}x (paper 3.8x)\n",
        render_overall(rows)
    )
}

/// E4 — Figure 11's rows: the combined speedup on one and on four
/// GTX 580s (Fermi: no shuffle, half the register file).
fn fig11_rows(fermi: &[PreparedPoint]) -> Vec<OverallRow> {
    let (dev, cpu) = (DeviceSpec::gtx_580(), CpuModel::default());
    let one_and_four = |p| [1, 4].map(|n| overall_row(p, &dev, &cpu, n));
    fermi.iter().flat_map(one_and_four).collect()
}

fn fig11_text(rows: &[OverallRow]) -> String {
    let (sp, env) = (
        max_speedup(rows, Some("Swissprot"), 4),
        max_speedup(rows, Some("Envnr"), 4),
    );
    // The even-split makespan model builds the ~4x in; the functional
    // pool has not been measured against it (EXPERIMENTS E22).
    let scaling = |db: &str| {
        let at = |n| {
            rows.iter()
                .find(|r| r.db == db && r.m == 400 && r.n_devices == n)
        };
        at(4)
            .zip(at(1))
            .map_or(f64::NAN, |(four, one)| four.speedup / one.speedup)
    };
    format!(
        "=== Figure 11: overall speedup on 4x GTX 580 (Fermi) ===\n{}\n\
         maxima (4 GPUs): Swissprot {sp:.2}x (paper 5.6x), Envnr {env:.2}x (paper 7.8x)\n\
         scaling vs 1 GPU at M=400, modelled, unvalidated (EXPERIMENTS E22): \
         Swissprot {:.2}x, Envnr {:.2}x\n",
        render_overall(rows),
        scaling("Swissprot"),
        scaling("Envnr")
    )
}

/// The largest combined speedup among `rows` on `n` devices, of
/// database `db`, or of any database when `db` is `None`.
fn max_speedup(rows: &[OverallRow], db: Option<&str>, n: usize) -> f64 {
    rows.iter()
        .filter(|r| db.is_none_or(|db| r.db == db) && r.n_devices == n)
        .fold(0.0, |best, r| r.speedup.max(best))
}

/// E9 — the abstract's four numbers, read off the Fig. 9–11 rows: the
/// best MSV and P7Viterbi stage speedups (Fig. 9), the best combined
/// speedup on one K40 (Fig. 10) and on four GTX 580s (Fig. 11), each with
/// the point it was read at.
fn headline(fig9: &[Fig9Row], fig10: &[OverallRow], fig11: &[OverallRow]) -> [(f64, String); 4] {
    let at = |db: &str, m| format!("{db} M={m}");
    let stage_peak = |stage: &str| {
        let rows = fig9.iter().filter(|r| r.stage == stage);
        let best = rows.max_by(|a, b| a.optimal.total_cmp(&b.optimal));
        best.map_or((0.0, String::new()), |r| (r.optimal, at(&r.db, r.m)))
    };
    // A combined point with no MSV survivor times MSV alone (EXPERIMENTS
    // E4); a peak read there says so.
    let combined_peak = |rows: &[OverallRow], n| {
        let rows = rows.iter().filter(|r| r.n_devices == n);
        let best = rows.max_by(|a, b| a.speedup.total_cmp(&b.speedup));
        best.map_or((0.0, String::new()), |r| {
            let alone = match r.survivor_frac <= SURVIVOR_FLOOR {
                true => ", no MSV survivor in its sample: MSV alone (E4)",
                false => "",
            };
            (r.speedup, format!("{}{alone}", at(&r.db, r.m)))
        })
    };
    [
        stage_peak("MSV"),
        stage_peak("P7Viterbi"),
        combined_peak(fig10, 1),
        combined_peak(fig11, 4),
    ]
}

fn headline_text(peaks: &[(f64, String); 4]) -> String {
    let mut o = String::from("=== Headline numbers (abstract) ===\n");
    let what = [
        ("MSV stage, single K40        ", 5.4),
        ("P7Viterbi stage, single K40  ", 2.9),
        ("combined pipeline, single K40", 3.8),
        ("combined, 4x GTX 580 (Fermi) ", 7.8),
    ];
    for ((what, paper), (x, at)) in what.iter().zip(peaks) {
        outln!(
            o,
            "  {what}: {x:>5.2}x   (paper: up to {paper:.1}x)   at {at}"
        );
    }
    o
}

/// E5 — the Pfam model-size distribution behind "about 98.9% of Pfam
/// database have size less than 1002" (paper: 84.5% ≤ 400, 14.4% in
/// 401–1000, 1.1% above).
fn pfam_sizes() -> String {
    let mut sizes = pfam_size_sample(PFAM_N_FAMILIES, 0x9fa8);
    sizes.sort_unstable();
    let n = sizes.len();
    let mut o = format!("=== Pfam-like model-size distribution ({n} families) ===\n");
    for (band, lo, hi, paper) in [
        ("size ≤ 400      : ", 0, 400, "   (paper 84.5%)"),
        ("400 < size ≤ 1000: ", 400, 1000, "  (paper 14.4%)"),
        ("size > 1000     : ", 1000, usize::MAX, "   (paper  1.1%)"),
        (
            "size < 1002     : ",
            0,
            1001,
            "   (paper ~98.9% — the shared-config majority claim)",
        ),
    ] {
        let count = sizes.iter().filter(|&&s| s > lo && s <= hi).count();
        outln!(
            o,
            "  {band}{:>5.1}%{paper}",
            count as f64 / n as f64 * 100.0
        );
    }
    let (min, median, max) = (sizes[0], sizes[n / 2], sizes[n - 1]);
    outln!(o, "  min {min} / median {median} / max {max}");
    o
}

/// The MSV tables of a synthetic model and an Env_nr-like sample with
/// its homologs, packed; the sample's size goes to `o`.
fn msv_workload(o: &mut String, m: usize, seed: u64) -> (MsvProfile, PackedDb) {
    let model = synthetic_model(m, seed, &BuildParams::default());
    let om = MsvProfile::from_profile(&Profile::config(&model, &NullModel::new()));
    let db = generate(
        &DbGenSpec::envnr_like().scaled(2e-5),
        Some(&model),
        seed + 1,
    );
    let (n, residues) = (db.len(), db.total_residues());
    outln!(o, "workload: m={m}, {n} sequences / {residues} residues\n");
    (om, PackedDb::from_db(&db))
}

/// E6 — the synchronization ablation (§III, Figs. 4–5): the
/// warp-synchronous MSV kernel against the Fig. 4 baseline (four warps
/// per row, barriers per row), and that baseline with barriers elided.
fn ablation_sync() -> Result<String, HarnessError> {
    let (m, dev, shared) = (ABLATION_M, DeviceSpec::tesla_k40(), MemConfig::Shared);
    let mut o = String::new();
    let (om, packed) = msv_workload(&mut o, m, 0xab1a);
    let fits = best_config(Stage::Msv, m, shared, &dev);
    let (mut cfg, occ_ws) = fits.ok_or_else(|| "MSV does not fit shared memory".to_string())?;
    cfg.blocks = 8;
    let ws = MsvWarpKernel {
        om: &om,
        db: packed.view(),
        mem: shared,
        layout: smem_layout(Stage::Msv, m, cfg.warps_per_block, shared, &dev),
    };
    let r_ws = run_grid(&dev, &cfg, &ws)?;
    let t_ws = kernel_time(&dev, &r_ws.stats, &occ_ws, 1.0).total_s;

    // Fig. 4: four warps share each row, one row per block.
    let layout = smem_layout(Stage::Msv, m, 1, shared, &dev);
    let naive_cfg = KernelConfig {
        warps_per_block: 4,
        blocks: 8,
        regs_per_thread: 32,
        smem_per_block: layout.total,
        track_hazards: true,
    };
    let naive = |elide_barriers| NaiveMsvKernel {
        om: &om,
        db: packed.view(),
        layout,
        warps_per_block: 4,
        elide_barriers,
    };
    let r_nv = run_grid_blocks(&dev, &naive_cfg, &naive(false))?;
    let occ_nv = occupancy(&dev, &naive_cfg);
    let t_nv = kernel_time(&dev, &r_nv.stats, &occ_nv, 1.0).total_s;
    let r_racy = run_grid_blocks(&dev, &naive_cfg, &naive(true))?;

    o.push_str(
        "=== E6: synchronization ablation (MSV, shared config) ===\n\
         kernel                       barriers   barriers/row      hazards   time (s)\n",
    );
    for (name, s, t) in [
        ("warp-synchronous", &r_ws.stats, t_ws),
        ("naive multi-warp", &r_nv.stats, t_nv),
        ("naive, barriers elided", &r_racy.stats, f64::NAN),
    ] {
        let (barriers, hazards) = (s.barriers, s.hazards);
        let per_row = barriers as f64 / s.rows.max(1) as f64;
        outln!(
            o,
            "{name:<24} {barriers:>12} {per_row:>14.3} {hazards:>12} {t:>10.4}"
        );
    }
    outln!(
        o,
        "\nmodeled slowdown of the naive scheme: {:.2}x (the paper's motivation for §III-A)\n\
         eliding barriers removes the cost but produces {} shared-memory races — \
         unusable on real hardware",
        t_nv / t_ws,
        r_racy.stats.hazards
    );
    // The two correct kernels score alike.
    let xj = |hits: Vec<Vec<MsvHit>>| {
        let mut hits: Vec<MsvHit> = hits.into_iter().flatten().collect();
        hits.sort_by_key(|h| h.seqid);
        hits.into_iter().map(|h| h.xj).collect::<Vec<_>>()
    };
    let agree = xj(r_ws.outputs) == xj(r_nv.outputs);
    check(agree, || {
        "warp-synchronous and naive-with-barriers scores differ".into()
    })?;
    outln!(
        o,
        "score check: warp-synchronous == naive-with-barriers (bit-exact) OK"
    );
    Ok(o)
}

/// E7 — the memory ablation (§III-A): bank conflicts of the DP row
/// layout, Kepler's shuffle reduction against Fermi's shared-memory one,
/// and shared against global table traffic.
fn ablation_memory() -> String {
    let mut o = String::new();
    let (om, packed) = msv_workload(&mut o, ABLATION_M, 0xab7e);
    o.push_str(
        "=== E7: memory ablation (MSV) ===\n\
         configuration                 conflicts   smem ld+st    l2 tx/row   shfl/row   time (s)\n",
    );
    for (dev, label) in [
        (DeviceSpec::tesla_k40(), "K40"),
        (DeviceSpec::gtx_580(), "GTX580"),
    ] {
        for mem in [MemConfig::Shared, MemConfig::Global] {
            let run = match run_msv_device(&om, &packed, &dev, Some(mem)) {
                Ok(r) => r.run,
                Err(e) => {
                    outln!(o, "{label:<7} {mem:?}: infeasible ({e})");
                    continue;
                }
            };
            let (s, config, time) = (&run.stats, format!("{label} {mem:?}"), run.time.total_s);
            let per_row = |n: u64| n as f64 / s.rows.max(1) as f64;
            let (l2, shfl) = (per_row(s.l2_transactions), per_row(s.shuffles));
            let (conflicts, smem) = (s.smem_conflict_extra, s.smem_loads + s.smem_stores);
            outln!(
                o,
                "{config:<28} {conflicts:>10} {smem:>12} {l2:>12.2} {shfl:>10.2} {time:>10.4}"
            );
        }
    }
    o.push_str(
        "\nclaims checked:\
         \n  - conflict column must be 0 everywhere (intrinsic conflict-free access)\
         \n  - K40 reduces with 5 shuffles/row; GTX580 pays ~10 extra smem ops/row instead\
         \n  - global config trades shared-memory table reads for L2 transactions\n",
    );
    o
}

/// E8 — Lazy-F against the max-plus prefix scan for the D→D chain
/// (§III-B, the §VI future-work note), on synthetic rows and in-kernel.
fn ablation_lazyf() -> Result<String, HarnessError> {
    let mut o = String::from(
        "=== E8: Lazy-F vs parallel prefix for the D-D chain ===\n\
         \n-- per-row costs on synthetic D rows (320 positions, 10 chunks) --\n\
         row regime                    votes     smem     shfl      alu\n",
    );
    let mut rng = StdRng::seed_from_u64(0x1a2f);
    for (label, strong_every, tdd_range) in [
        ("quiet (DD never taken)", usize::MAX, -2500i16..-2000i16),
        ("typical (short chains)", 40usize, -1600..-1100),
        ("gappy (80% DD regime)", 12usize, -120..-60),
    ] {
        let m = 320usize;
        let seeds: Vec<i16> = (0..m)
            .map(
                |i| match strong_every != usize::MAX && i % strong_every == 3 {
                    true => rng.gen_range(-1000..0),
                    false => rng.gen_range(-9000..-8500),
                },
            )
            .collect();
        let mut tdd: Vec<i16> = (0..m).map(|_| rng.gen_range(tdd_range.clone())).collect();
        tdd[0] = i16::MIN;
        let expect = scalar_resolve(&seeds, &tdd);
        let (d_lazy, lazy) = lazy_f_resolve(&seeds, &tdd);
        let (d_pfx, pfx) = prefix_resolve(&seeds, &tdd);
        check(d_lazy == expect && d_pfx == expect, || {
            format!("{label}: a D-D resolution differs from the scalar one")
        })?;
        for (name, c) in [
            (format!("{label} [lazy]"), lazy),
            (format!("{label} [pfx] "), pfx),
        ] {
            let (votes, smem, shfl, alu) = (c.votes, c.smem, c.shuffles, c.alu);
            outln!(o, "{name:<26} {votes:>8} {smem:>8} {shfl:>8} {alu:>8}");
        }
    }
    outln!(
        o,
        "\n-- in-kernel Lazy-F effort over a database sweep (m = 100) --"
    );
    let dev = DeviceSpec::tesla_k40();
    for (label, params) in [
        ("conserved model", BuildParams::default()),
        ("gappy model   ", BuildParams::gappy()),
    ] {
        let model = synthetic_model(100, 0x1a30, &params);
        let om = VitProfile::from_profile(&Profile::config(&model, &NullModel::new()));
        let db = generate(&DbGenSpec::envnr_like().scaled(1e-5), Some(&model), 0x1a31);
        let run = run_vit_device(&om, &PackedDb::from_db(&db), &dev, Some(MemConfig::Shared))?;
        let (l, votes) = (run.lazy, run.run.stats.votes);
        let skipped = l.rows_skipped as f64 / l.rows.max(1) as f64 * 100.0;
        let per_chunk = l.inner_iters as f64 / l.chunks.max(1) as f64;
        outln!(
            o,
            "{label}: rows {} skipped {skipped:.1}%  inner-iters/chunk {per_chunk:.3}  votes {votes}",
            l.rows
        );
    }
    o.push_str(
        "\nreading: Lazy-F's cost is data-dependent and near-minimal when D-D is rare \
         (§III-B); the prefix scan is input-independent — the bound §VI proposes for \
         the 80%-DD regime of very gappy models.\n",
    );
    Ok(o)
}

/// E10 — sensitivity preserved: the warp kernels' raw scores equal the
/// CPU filters', filter scores track the float references within the
/// quantization budget, and the device pipeline reports the CPU's hits.
fn accuracy() -> Result<String, HarnessError> {
    let (m, dev) = (ACCURACY_M, DeviceSpec::tesla_k40());
    let model = synthetic_model(m, 0xacc, &BuildParams::default());
    let profile = Profile::config(&model, &NullModel::new());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 0xacc2);
    let mut spec = DbGenSpec::swissprot_like().scaled(2e-4);
    spec.homolog_fraction = 0.05;
    let db = generate(&spec, Some(&model), 0xacc3);
    let packed = PackedDb::from_db(&db);
    let (n, residues) = (db.len(), db.total_residues());
    let mut o = format!("accuracy check: m={m}, {n} sequences / {residues} residues\n");

    // 1. Bit-exactness of the warp kernels against the CPU filters.
    let msv_run = run_msv_device(&pipe.msv, &packed, &dev, None)?;
    let vit_run = run_vit_device(&pipe.vit, &packed, &dev, None)?;
    let mut mismatches = 0usize;
    for (seq, (msv, vit)) in db.seqs.iter().zip(msv_run.hits.iter().zip(&vit_run.hits)) {
        let (cm, cv) = (
            msv_filter_scalar(&pipe.msv, &seq.residues),
            vit_filter_scalar(&pipe.vit, &seq.residues),
        );
        mismatches += usize::from((msv.xj, msv.overflow) != (cm.xj, cm.overflow));
        mismatches += usize::from(vit.xc != cv.xc);
    }
    outln!(
        o,
        "1. GPU kernels vs CPU filters: {mismatches} mismatches over {n} sequences (must be 0)"
    );
    check(mismatches == 0, || {
        format!("{mismatches} kernel/filter mismatches")
    })?;

    // 2. Quantization fidelity against the float references.
    let (mut msv_err, mut vit_err) = (0f32, 0f32);
    for seq in db.seqs.iter().take(300) {
        let q = msv_filter_scalar(&pipe.msv, &seq.residues);
        if !q.overflow {
            msv_err = msv_err.max((q.score - msv_filter_model(&profile, &seq.residues)).abs());
        }
        let qv = vit_filter_scalar(&pipe.vit, &seq.residues);
        if qv.score.is_finite() {
            vit_err = vit_err.max((qv.score - viterbi_filter_model(&profile, &seq.residues)).abs());
        }
    }
    outln!(
        o,
        "2. quantization error vs float reference: MSV ≤ {msv_err:.3} nats (8-bit, third-bit units), \
         Viterbi ≤ {vit_err:.4} nats (16-bit)"
    );
    // MSV: third-bit rounding walk. Viterbi: tight except just below the
    // i16 ceiling, where partial saturation compresses very strong scores
    // before the off-scale exit triggers.
    check(msv_err < 2.0 && vit_err < 2.0, || {
        format!("quantization error past 2 nats: MSV {msv_err}, Viterbi {vit_err}")
    })?;

    // 3. The device pipeline reports the CPU pipeline's hit list.
    let ids = |plan| -> Result<Vec<u32>, HarnessError> {
        Ok(pipe
            .search(&db, &plan)?
            .hits
            .iter()
            .map(|h| h.seqid)
            .collect())
    };
    let (cpu, gpu) = (ids(ExecPlan::Cpu)?, ids(ExecPlan::Device { dev })?);
    let (n_cpu, n_gpu, same) = (cpu.len(), gpu.len(), cpu == gpu);
    outln!(
        o,
        "3. pipeline hits: CPU {n_cpu} vs GPU {n_gpu} — identical: {same}"
    );
    check(same, || {
        "CPU and device pipelines report different hits".into()
    })?;
    outln!(o, "\nsensitivity and accuracy of HMMER 3.0 preserved: OK");
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The experiments' numbers and the directory `words` ask for.
    fn args(words: &[&str]) -> Result<(Vec<&'static str>, PathBuf), HarnessError> {
        let (which, dir) = parse_args(words.iter().map(|w| w.to_string()))?;
        Ok((which.iter().map(|(num, ..)| *num).collect(), dir))
    }

    #[test]
    fn arguments_name_experiments_and_one_directory() {
        let (which, dir) = args(&["E10", "E5", "E5", "--out", "x"]).unwrap();
        assert_eq!(which, ["E5", "E10"]);
        assert_eq!(dir, Path::new("x"));
        let all: Vec<String> = (1..=10).map(|i| format!("E{i}")).collect();
        assert_eq!(args(&["all"]).unwrap().0, all);
        assert_eq!(args(&["E1"]).unwrap().1, Path::new("results"));
        for bad in [&["E99"][..], &[], &["E1", "--out"], &["--json", "x"]] {
            let err = format!("{:?}", args(bad).unwrap_err());
            assert!(
                err.ends_with("usage: reproduce <E1…E10|all>... [--out DIR]"),
                "{err}"
            );
        }
    }

    #[test]
    fn each_experiment_reads_the_series_its_figure_comes_from() {
        let reads = |num: &str| EXPERIMENTS.iter().find(|e| e.0 == num).unwrap().2;
        for (num, series) in [("E2", K40), ("E3", K40), ("E4", FERMI), ("E9", K40 | FERMI)] {
            assert_eq!(reads(num), series, "{num}");
        }
        let others = ["E1", "E5", "E6", "E7", "E8", "E10"];
        assert!(others.iter().all(|num| reads(num) == 0));
    }

    fn fig9(stage: &str, optimal: f64) -> Fig9Row {
        Fig9Row {
            db: "Envnr".into(),
            m: 400,
            stage: stage.into(),
            shared: None,
            global: None,
            optimal,
            cpu_time_s: 1.0,
        }
    }

    fn overall(db: &str, n_devices: usize, speedup: f64) -> OverallRow {
        OverallRow {
            db: db.into(),
            m: 400 + n_devices,
            n_devices,
            speedup,
            gpu_msv_s: 1.0,
            gpu_vit_s: 1.0,
            cpu_msv_s: 1.0,
            cpu_vit_s: 1.0,
            survivor_frac: 0.01,
        }
    }

    #[test]
    fn headline_is_the_maxima_of_the_rows_it_is_handed() {
        let fig9 = [
            fig9("MSV", 3.0),
            fig9("MSV", 5.5),
            fig9("P7Viterbi", 2.5),
            fig9("P7Viterbi", 1.0),
        ];
        let fig10 = [overall("Swissprot", 1, 3.1), overall("Envnr", 1, 2.0)];
        // The one-device Fermi rows are larger than any four-device row
        // here, and must not be read.
        let mut fig11 = [
            overall("Swissprot", 1, 9.0),
            overall("Swissprot", 4, 6.0),
            overall("Envnr", 4, 6.5),
        ];
        let peaks = headline(&fig9, &fig10, &fig11);
        assert_eq!(peaks.clone().map(|(x, _)| x), [5.5, 2.5, 3.1, 6.5]);
        assert_eq!(peaks[3].1, "Envnr M=404");
        let text = headline_text(&peaks);
        assert!(
            text.starts_with("=== Headline numbers (abstract) ===\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "MSV stage, single K40        :  5.50x   (paper: up to 5.4x)   at Envnr M=400\n"
            ),
            "{text}"
        );
        // A peak read at a point with no MSV survivor says so.
        fig11[2].survivor_frac = SURVIVOR_FLOOR;
        let peaks = headline(&fig9, &fig10, &fig11);
        assert_eq!(
            peaks[3].1,
            "Envnr M=404, no MSV survivor in its sample: MSV alone (E4)"
        );
        assert_eq!(peaks[2].1, "Swissprot M=401");
    }
}
