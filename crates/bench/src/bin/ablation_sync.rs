//! E6 — synchronization-overhead ablation (the §III motivation, Figs. 4–5).
//!
//! Runs the same MSV workload through (a) the paper's warp-synchronous
//! kernel and (b) the Fig. 4 baseline (multi-warp rows, barriers per row),
//! on the simulator, then compares barrier budgets, modeled times, and —
//! with barriers elided — the race detector's verdict.
//!
//! Usage: `cargo run --release -p h3w-bench --bin ablation_sync [m] [scale]`

use h3w_core::layout::{best_config, smem_layout, MemConfig, Stage};
use h3w_core::msv_warp::MsvWarpKernel;
use h3w_core::naive::NaiveMsvKernel;
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::NullModel;
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_seqdb::PackedDb;
use h3w_simt::{
    kernel_time, occupancy, run_grid, run_grid_blocks, CostParams, DeviceSpec, KernelConfig,
};

fn main() {
    let m: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2e-5);
    let dev = DeviceSpec::tesla_k40();
    let model = synthetic_model(m, 0xab1a, &BuildParams::default());
    let bg = NullModel::new();
    let om = MsvProfile::from_profile(&Profile::config(&model, &bg));
    let db = generate(&DbGenSpec::envnr_like().scaled(scale), Some(&model), 0xab1b);
    let packed = PackedDb::from_db(&db);
    println!(
        "workload: m={m}, {} sequences / {} residues",
        db.len(),
        db.total_residues()
    );

    // (a) warp-synchronous (Algorithm 1).
    let (mut cfg, occ_ws) = best_config(Stage::Msv, m, MemConfig::Shared, &dev).unwrap();
    cfg.blocks = 8;
    let layout = smem_layout(Stage::Msv, m, cfg.warps_per_block, MemConfig::Shared, &dev);
    let ws = MsvWarpKernel {
        om: &om,
        db: packed.view(),
        mem: MemConfig::Shared,
        layout,
    };
    let r_ws = run_grid(&dev, &cfg, &ws).unwrap();
    let t_ws = kernel_time(&dev, &CostParams::default(), &r_ws.stats, &occ_ws, 1.0);

    // (b) Fig. 4 naive: 4 warps cooperate on each row, one row per block.
    let naive_layout = smem_layout(Stage::Msv, m, 1, MemConfig::Shared, &dev);
    let naive_cfg = KernelConfig {
        warps_per_block: 4,
        blocks: 8,
        regs_per_thread: 32,
        smem_per_block: naive_layout.total,
        track_hazards: true,
    };
    let occ_nv = occupancy(&dev, &naive_cfg);
    let mk = |elide| NaiveMsvKernel {
        om: &om,
        db: packed.view(),
        layout: naive_layout,
        warps_per_block: 4,
        elide_barriers: elide,
    };
    let safe = mk(false);
    let r_nv = run_grid_blocks(&dev, &naive_cfg, &safe).unwrap();
    let t_nv = kernel_time(&dev, &CostParams::default(), &r_nv.stats, &occ_nv, 1.0);
    let racy = mk(true);
    let r_racy = run_grid_blocks(&dev, &naive_cfg, &racy).unwrap();

    println!();
    println!("=== E6: synchronization ablation (MSV, shared config) ===");
    println!(
        "{:<24} {:>12} {:>14} {:>12} {:>10}",
        "kernel", "barriers", "barriers/row", "hazards", "time (s)"
    );
    let row = |name: &str, stats: &h3w_simt::KernelStats, t: f64| {
        println!(
            "{:<24} {:>12} {:>14.3} {:>12} {:>10.4}",
            name,
            stats.barriers,
            stats.barriers as f64 / stats.rows.max(1) as f64,
            stats.hazards,
            t
        );
    };
    row("warp-synchronous", &r_ws.stats, t_ws.total_s);
    row("naive multi-warp", &r_nv.stats, t_nv.total_s);
    row("naive, barriers elided", &r_racy.stats, f64::NAN);
    println!();
    println!(
        "modeled slowdown of the naive scheme: {:.2}x (the paper's motivation for §III-A)",
        t_nv.total_s / t_ws.total_s
    );
    println!(
        "eliding barriers removes the cost but produces {} shared-memory races — \
         unusable on real hardware",
        r_racy.stats.hazards
    );
    // Scores agree between the two *correct* kernels.
    let mut ws_hits: Vec<_> = r_ws.outputs.into_iter().flatten().collect();
    ws_hits.sort_by_key(|h| h.seqid);
    let mut nv_hits: Vec<_> = r_nv.outputs.into_iter().flatten().collect();
    nv_hits.sort_by_key(|h| h.seqid);
    assert_eq!(
        ws_hits.iter().map(|h| h.xj).collect::<Vec<_>>(),
        nv_hits.iter().map(|h| h.xj).collect::<Vec<_>>(),
        "correct kernels must agree"
    );
    println!("score check: warp-synchronous == naive-with-barriers (bit-exact) OK");
}
