//! Multi-GPU database scan on four simulated Fermi GTX 580s (§IV-A).
//!
//! ```sh
//! cargo run --release --example multi_gpu_scan
//! ```
//!
//! The device plan's pool partitions each filter stage's input
//! round-robin, in order, across its devices; every device runs the same
//! warp-synchronous kernels (shared-memory reductions — Fermi has no
//! shuffle), and a stage's modeled time is the makespan. A pool of one
//! is `ExecPlan::Device`, the paper's single-GPU deployment.

use hmmer3_warp::core::multi_gpu::partition;
use hmmer3_warp::prelude::*;

fn main() {
    let model = synthetic_model(400, 580, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 7);
    let mut spec = DbGenSpec::envnr_like().scaled(5e-5); // ≈ 330 seqs
    spec.homolog_fraction = 0.01;
    let db = generate(&spec, Some(&model), 33);
    let dev = DeviceSpec::gtx_580();
    println!(
        "query m=400, database {} seqs / {} residues, 4x {}",
        db.len(),
        db.total_residues(),
        dev.name
    );

    // The stage-1 split: every sequence, as the MSV stage partitions it.
    let all: Vec<u32> = (0..db.len() as u32).collect();
    println!();
    println!("MSV partition balance (residues per device):");
    for (i, part) in partition(&all, 4).iter().enumerate() {
        let residues: usize = part.iter().map(|&id| db.seqs[id as usize].len()).sum();
        println!(
            "  device {i}: {residues:>8} residues / {:>4} seqs",
            part.len()
        );
    }

    let plan = ExecPlan::Devices {
        dev,
        pool: FtSweep::fault_free(4),
    };
    let report = pipe
        .search_traced(&db, &plan, &Trace::off())
        .expect("multi-GPU search");
    println!();
    println!("per-stage time (makespan across the pool for device stages):");
    for st in &report.result.stages {
        println!(
            "  {:<22} {:>5} seqs in, {:>4} out  {:.3} ms",
            st.name,
            st.seqs_in,
            st.seqs_out,
            st.time_s * 1e3
        );
    }
    let journal = &report.recovery;
    println!(
        "recovery journal: {} retries, {} devices lost, {} seqs redistributed, CPU fallback: {}",
        journal.retries,
        journal.lost_devices.len(),
        journal.redistributed_seqs,
        report.degraded_to_cpu
    );
    assert_eq!(report.result.stages[0].seqs_in, db.len());
    println!("hits reported: {}", report.result.hits.len());
}
