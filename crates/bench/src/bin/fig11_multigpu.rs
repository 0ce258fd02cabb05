//! E4 — Figure 11: overall MSV + P7Viterbi speedup on four GTX 580s
//! (Fermi): no warp shuffle (shared-memory reductions), half the register
//! file, database partitioned across devices with makespan timing.
//!
//! Paper targets: maxima ≈ 5.6× (Swissprot) and ≈ 7.8× (Env_nr), with
//! near-linear scaling over a single Fermi device.
//!
//! Usage: `cargo run --release -p h3w-bench --bin fig11_multigpu
//! [--json out.json]`

use h3w_bench::figures::{overall_row, prepare_series, render_overall, OverallRow};
use h3w_bench::{CpuModel, DbPreset};
use h3w_simt::DeviceSpec;

fn main() {
    let json_path = std::env::args().skip_while(|a| a != "--json").nth(1);
    let dev = DeviceSpec::gtx_580();
    let cpu = CpuModel::default();
    let mut rows: Vec<OverallRow> = Vec::new();
    for preset in [DbPreset::Swissprot, DbPreset::Envnr] {
        eprintln!("preparing {} series...", preset.name());
        for p in prepare_series(preset, &dev, 0xf1911) {
            rows.push(overall_row(&p, &dev, &cpu, 1));
            rows.push(overall_row(&p, &dev, &cpu, 4));
        }
    }
    println!(
        "=== Figure 11: overall speedup on 4x {} (Fermi) ===",
        dev.name
    );
    println!("{}", render_overall(&rows));
    let max_of = |db: &str, n: usize| {
        rows.iter()
            .filter(|r| r.db == db && r.n_devices == n)
            .map(|r| r.speedup)
            .fold(0.0f64, f64::max)
    };
    println!(
        "maxima (4 GPUs): Swissprot {:.2}x (paper 5.6x), Envnr {:.2}x (paper 7.8x)",
        max_of("Swissprot", 4),
        max_of("Envnr", 4)
    );
    // The even-split makespan model builds the ~4x in; the functional
    // pool has not been measured against it (EXPERIMENTS E22).
    println!(
        "scaling vs 1 GPU at M=400, modelled, unvalidated (EXPERIMENTS E22): \
         Swissprot {:.2}x, Envnr {:.2}x",
        scaling_at(&rows, "Swissprot", 400),
        scaling_at(&rows, "Envnr", 400)
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, h3w_bench::json::pretty_rows(&rows)) {
            eprintln!("fig11_multigpu: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

fn scaling_at(rows: &[OverallRow], db: &str, m: usize) -> f64 {
    let get = |n: usize| {
        rows.iter()
            .find(|r| r.db == db && r.m == m && r.n_devices == n)
            .map(|r| r.speedup)
            .unwrap_or(f64::NAN)
    };
    get(4) / get(1)
}
