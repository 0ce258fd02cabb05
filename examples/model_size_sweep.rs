//! Sweep the paper's eight model sizes and watch the §IV occupancy story:
//! the shared-memory configuration collapses as the model grows, the
//! global configuration holds, and the cache-aware switch picks the
//! faster one per size.
//!
//! ```sh
//! cargo run --release --example model_size_sweep
//! ```

use hmmer3_warp::core::layout::best_config;
use hmmer3_warp::core::stats_model::DbAggregates;
use hmmer3_warp::core::tiered::auto_mem_config;
use hmmer3_warp::prelude::*;

fn main() {
    let dev = DeviceSpec::tesla_k40();
    // A nominal Env_nr-scale workload shape (only the aggregates matter
    // for configuration choice).
    let agg = DbAggregates {
        n_seqs: 6_549_721,
        total_residues: 1_290_247_663,
        total_words: 215_041_277,
        code_rows: [1_290_247_663 / 26; 26],
    };
    println!("device: {}", dev.name);
    println!();
    println!(
        "{:>6} | {:<9} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
        "M", "stage", "sh-occ", "sh-wpb", "gl-occ", "gl-wpb", "switch"
    );
    for stage in [Stage::Msv, Stage::Viterbi] {
        for &m in &PAPER_MODEL_SIZES {
            let fmt = |mem| match best_config(stage, m, mem, &dev) {
                Some((cfg, occ)) => (
                    format!("{:>8.0}%", occ.occupancy * 100.0),
                    format!("{:>9}", cfg.warps_per_block),
                ),
                None => (format!("{:>9}", "-"), format!("{:>9}", "-")),
            };
            let (so, sw) = fmt(MemConfig::Shared);
            let (go, gw) = fmt(MemConfig::Global);
            let choice = match auto_mem_config(stage, m, &dev, &agg) {
                Some(MemConfig::Shared) => "shared",
                Some(MemConfig::Global) => "global",
                None => "-",
            };
            println!(
                "{:>6} | {:<9} | {} {} | {} {} | {:>8}",
                m,
                match stage {
                    Stage::Msv => "MSV",
                    Stage::Viterbi => "P7Viterbi",
                },
                so,
                sw,
                go,
                gw,
                choice
            );
        }
    }
    println!();
    println!(
        "paper §IV: MSV switches shared→global near M = 1002; P7Viterbi is \
         register-capped at 50% and its shared tables stop fitting near M ≈ 650."
    );
}
