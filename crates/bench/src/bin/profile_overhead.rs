//! Telemetry overhead smoke check — the CI gate for the "zero-cost when
//! disabled, ≤ 2% when enabled" budget (DESIGN.md §8).
//!
//! Runs the CPU funnel through `Pipeline::search_traced` with profiling
//! on and off, interleaved, and compares the median-of-5 MSV-stage
//! throughput (the stage that dominates runtime and carries the batch
//! telemetry). Exits nonzero if the instrumented median falls more than
//! the tolerance below the uninstrumented one.
//!
//! Usage: `cargo run --release -p h3w-bench --bin profile_overhead`
//!
//! Alongside the human-readable verdict, one JSON row goes to stdout
//! with the measurements and the active worker count — throughput on a
//! 4-worker pool is not comparable to a 1-worker run, so the row is
//! meaningless without it.

use h3w_bench::json::Json;
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_pipeline::{ExecPlan, Pipeline, PipelineConfig};
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_trace::Trace;
use std::process::ExitCode;

const REPS: usize = 5;
/// The tracing budget (DESIGN.md §8): instrumented MSV throughput may
/// fall at most this fraction below uninstrumented.
const TOL: f64 = 0.02;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    let model = synthetic_model(400, 5, &BuildParams::default());
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 7);
    let mut spec = DbGenSpec::envnr_like().scaled(0.001);
    spec.homolog_fraction = 0.01;
    let db = generate(&spec, Some(&model), 5);
    eprintln!(
        "workload: {} seqs, {} residues, model M={}; tolerance {:.1}%",
        db.len(),
        db.total_residues(),
        model.len(),
        TOL * 100.0
    );

    // MSV-stage residues/sec for one run, with or without a live trace.
    let msv_rps = |trace: &Trace| -> f64 {
        let r = pipe
            .search_traced(&db, &ExecPlan::Cpu, trace)
            .expect("the CPU plan cannot fail")
            .result;
        r.stages[0].residues_in as f64 / r.stages[0].time_s
    };

    // Warm-up (tables, page faults, thread pool).
    msv_rps(&Trace::off());
    msv_rps(&Trace::on());

    // Interleave the arms so clock drift and cache state hit both alike.
    let mut base = Vec::new();
    let mut instr = Vec::new();
    for _ in 0..REPS {
        base.push(msv_rps(&Trace::off()));
        instr.push(msv_rps(&Trace::on()));
    }
    let base_med = median(base);
    let instr_med = median(instr);
    let ratio = instr_med / base_med;
    println!(
        "MSV throughput: uninstrumented {:.2} Mres/s, instrumented {:.2} Mres/s (ratio {:.4})",
        base_med / 1e6,
        instr_med / 1e6,
        ratio
    );
    println!(
        "{}",
        Json::Obj(vec![
            ("workers", Json::Num(pipe.pool().threads() as f64)),
            ("base_msv_residues_per_sec", Json::Num(base_med)),
            ("instrumented_msv_residues_per_sec", Json::Num(instr_med)),
            ("ratio", Json::Num(ratio)),
            ("tolerance", Json::Num(TOL)),
        ])
        .pretty()
    );
    if ratio < 1.0 - TOL {
        eprintln!(
            "FAIL: instrumented MSV throughput is {:.2}% below uninstrumented (tolerance {:.1}%)",
            (1.0 - ratio) * 100.0,
            TOL * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("OK: telemetry overhead within {:.1}% budget", TOL * 100.0);
    ExitCode::SUCCESS
}
