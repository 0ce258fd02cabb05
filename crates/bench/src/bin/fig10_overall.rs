//! E3 — Figure 10: overall speedup of the combined MSV + P7Viterbi
//! pipeline on a single Tesla K40, Swissprot-like and Env_nr-like
//! databases, across the eight paper model sizes.
//!
//! Paper targets: maxima ≈ 3.0× (Swissprot) and ≈ 3.8× (Env_nr); Env_nr
//! higher because its lower homology keeps the fast MSV stage dominant
//! (§V discussion).
//!
//! Usage: `cargo run --release -p h3w-bench --bin fig10_overall
//! [--json out.json]`

use h3w_bench::figures::{overall_row, prepare_series, render_overall, OverallRow};
use h3w_bench::{CpuModel, DbPreset};
use h3w_simt::DeviceSpec;

fn main() {
    let json_path = std::env::args().skip_while(|a| a != "--json").nth(1);
    let dev = DeviceSpec::tesla_k40();
    let cpu = CpuModel::default();
    let mut rows: Vec<OverallRow> = Vec::new();
    for preset in [DbPreset::Swissprot, DbPreset::Envnr] {
        eprintln!("preparing {} series...", preset.name());
        for p in prepare_series(preset, &dev, 0xf1910) {
            rows.push(overall_row(&p, &dev, &cpu, 1));
        }
    }
    println!(
        "=== Figure 10: overall MSV+Viterbi speedup on {} ===",
        dev.name
    );
    println!("{}", render_overall(&rows));
    let max_of = |db: &str| {
        rows.iter()
            .filter(|r| r.db == db)
            .map(|r| r.speedup)
            .fold(0.0f64, f64::max)
    };
    println!(
        "maxima: Swissprot {:.2}x (paper 3.0x), Envnr {:.2}x (paper 3.8x)",
        max_of("Swissprot"),
        max_of("Envnr")
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, h3w_bench::json::pretty_rows(&rows)) {
            eprintln!("fig10_overall: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
