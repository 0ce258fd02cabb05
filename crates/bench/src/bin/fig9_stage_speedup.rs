//! E2 — Figure 9: per-stage speedup and occupancy vs model size, for
//! Swissprot-like and Env_nr-like databases, shared vs global memory
//! configurations, on the simulated Tesla K40.
//!
//! Paper targets: MSV peak ≈ 5.0–5.4× near M = 800 with the shared→global
//! crossover near M = 1002 and 100% occupancy below M = 400; P7Viterbi
//! peak ≈ 2.9× at 50% occupancy, decaying quickly past M = 200.
//!
//! Usage: `cargo run --release -p h3w-bench --bin fig9_stage_speedup
//! [--json out.json]`

use h3w_bench::figures::{fig9_row, prepare_series, render_fig9, Fig9Row};
use h3w_bench::{CpuModel, DbPreset};
use h3w_core::Stage;
use h3w_simt::DeviceSpec;

fn main() {
    let json_path = std::env::args().skip_while(|a| a != "--json").nth(1);
    let dev = DeviceSpec::tesla_k40();
    let cpu = CpuModel::default();
    let mut rows: Vec<Fig9Row> = Vec::new();
    for preset in [DbPreset::Swissprot, DbPreset::Envnr] {
        eprintln!(
            "preparing {} series (functional sample runs)...",
            preset.name()
        );
        let points = prepare_series(preset, &dev, 0x9f17);
        for stage in [Stage::Msv, Stage::Viterbi] {
            for p in &points {
                rows.push(fig9_row(p, stage, &dev, &cpu));
            }
        }
    }
    println!(
        "=== Figure 9: stage speedup & occupancy on {} ===",
        dev.name
    );
    println!("{}", render_fig9(&rows));
    println!(
        "paper shape targets: MSV peak 5.0-5.4x near M=800, crossover ~1002, \
         100% occ below 400; Viterbi peak ~2.9x at 50% occ, decaying past 200"
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, h3w_bench::json::pretty_rows(&rows)) {
            eprintln!("fig9_stage_speedup: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
