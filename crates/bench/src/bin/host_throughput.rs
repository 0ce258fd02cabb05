//! Measure this host's striped-filter throughput (cells/s) — the evidence
//! behind the `CpuModel` constants recorded in EXPERIMENTS.md.
//!
//! Prints the single-sequence numbers plus a `batched_filter_loops`
//! section: the interleaved MSV kernel at batch widths 1 to 4 on every
//! available backend, so the batching win is visible per-host.
//!
//! Usage: `cargo run --release -p h3w-bench --bin host_throughput`

fn main() {
    use h3w_cpu::sweep::{measure_batched, measure_msv_throughput};
    use h3w_cpu::{Backend, StripedMsv, StripedVit};
    use h3w_hmm::profile::Profile;
    use h3w_hmm::*;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    let bg = NullModel::new();
    let core = synthetic_model(400, 5, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let msv = MsvProfile::from_profile(&p);
    let vit = VitProfile::from_profile(&p);
    let db = generate(&DbGenSpec::envnr_like().scaled(0.0002), None, 5);
    let tm = measure_msv_throughput(&msv, &db, 1000);
    let tv = measure_batched(&(&StripedVit::new(&vit), &vit), &db, 400, 1);
    println!(
        "host striped MSV: {:.2} Gcell/s single-thread",
        tm.cells_per_sec / 1e9
    );
    println!(
        "host striped Vit: {:.2} Gcell/s (x3-state) single-thread",
        tv.cells_per_sec / 1e9
    );

    println!("\nbatched_filter_loops (single-thread, real cells):");
    for backend in Backend::all_available() {
        let sm = StripedMsv::with_backend(&msv, backend);
        for width in [1usize, 2, 3, 4] {
            // Warm up once, then measure.
            measure_batched(&(&sm, &msv), &db, 200, width);
            let t_msv = measure_batched(&(&sm, &msv), &db, 1000, width);
            println!(
                "  {:6} S={width}: MSV {:7.2} Mcell/s",
                backend.name(),
                t_msv.cells_per_sec / 1e6,
            );
        }
    }
}
