//! The three phases of one workload, each run as its own child process
//! so that `peak_rss_mb` is the `run` phase's high-water mark alone and
//! `setup_s` is the `setup` phase's wall alone. Phases hand results to
//! the driver through JSON files in the workload's directory.

use crate::json::Json;
use crate::layers;
use crate::metrics;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{self, Metrics, Outcome};
use std::path::Path;
use std::time::Instant;

/// What `setup` leaves for the other phases: input facts and the
/// per-layer metrics measured while generating.
pub const SETUP_FILE: &str = "setup.json";
/// What `run` leaves: wall samples, comparisons made and failed, VmHWM.
pub const RUN_FILE: &str = "run.json";
/// What `layers` leaves: the per-layer metrics of the traced run.
pub const LAYERS_FILE: &str = "layers.json";

/// Upper bound on timed repetitions in one `run`, whatever `--seconds`.
const MAX_REPS: usize = 2000;

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `setup`: empty `dir`, generate the inputs from `seed`, write them and
/// the reference hit lists.
pub fn setup(workload: &str, dir: &Path, seed: u64, scale: f64) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let report = workloads::setup(workload, dir, seed, scale)?;
    write_json(
        &dir.join(SETUP_FILE),
        &Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("scale", Json::Num(scale)),
            ("input", report.input.to_json()),
            ("layers", report.layers.to_json()),
        ]),
    )
}

/// `run`: one untimed warm-up, then timed repetitions of the operation,
/// tracing off, until `seconds` have passed and at least `min_reps` are
/// in. Every repetition's hits are compared to the reference.
pub fn run(workload: &str, dir: &Path, seconds: f64, min_reps: usize) -> Result<(), String> {
    let mut op = workloads::open(workload, dir)?;
    let mut spans = Spans::off();
    let mut scratch = Metrics::default();
    let warm = op.run(&mut spans, &mut scratch)?;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MAX_REPS
        && (walls.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < seconds)
    {
        let Outcome {
            wall_s,
            attempted: a,
            failed: f,
        } = op.run(&mut spans, &mut scratch)?;
        walls.push(wall_s);
        attempted += a;
        failed += f;
    }
    write_json(
        &dir.join(RUN_FILE),
        &Json::obj([
            ("wall_s", Json::nums(&walls)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("peak_rss_mb", Json::Num(layers::peak_rss_mb())),
        ]),
    )
}

/// `layers`: replay the operation with the span recorder on, run the
/// workload's probes, and write the per-layer metrics and the trace.
///
/// Traced and untraced operations alternate in this one process, so
/// `trace.bench_overhead_frac` compares like with like; up to three pairs
/// run while they fit in a few seconds, and the last traced one is kept.
pub fn layers(workload: &str, dir: &Path) -> Result<(), String> {
    const PAIR_BUDGET_S: f64 = 3.0;
    let mut op = workloads::open(workload, dir)?;
    let mut scratch = Metrics::default();
    op.run(&mut Spans::off(), &mut scratch)?;

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut kept = None;
    let start = Instant::now();
    while traced.is_empty() || (traced.len() < 3 && start.elapsed().as_secs_f64() < PAIR_BUDGET_S) {
        plain.push(op.run(&mut Spans::off(), &mut scratch)?.wall_s);
        let mut spans = Spans::on();
        let mut layer = Metrics::default();
        let outcome = op.run(&mut spans, &mut layer)?;
        traced.push(outcome.wall_s);
        kept = Some((spans, layer, outcome));
    }
    let (mut spans, mut layer, outcome) = kept.expect("at least one traced pair ran");
    op.probes(&mut spans, &mut layer)?;

    let setup = crate::json::read_file(&dir.join(SETUP_FILE))?;
    for (name, value) in Metrics::from_json(setup.get("layers").unwrap_or(&Json::Null)).iter() {
        layer.set(name, value);
    }
    let work = setup
        .get("input")
        .ok_or("setup.json has no input")?
        .num_at("stage1_mres")?;
    layer.set("pipeline.op_mres_per_s", work / outcome.wall_s.max(1e-12));
    layer.set("pool.threads", layers::pool_threads() as f64);
    layer.set(
        "trace.bench_overhead_frac",
        median(&traced) / median(&plain).max(1e-12) - 1.0,
    );
    layer.set("trace.op_coverage_frac", spans.coverage("op"));
    check_declared(workload, &layer)?;

    write_json(
        &dir.join(format!("trace_{workload}.json")),
        &spans.to_json(),
    )?;
    write_json(
        &dir.join(LAYERS_FILE),
        &Json::obj([
            ("metrics", layer.to_json()),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
        ]),
    )
}

/// The traced run must produce exactly the metrics the table declares for
/// this workload: a missing one would silently read as 0 downstream.
/// `pool.speedup_nproc` alone may be absent, on a one-thread host.
fn check_declared(workload: &str, layer: &Metrics) -> Result<(), String> {
    for m in metrics::declared(workload) {
        let optional = m.name == "pool.speedup_nproc" && layers::pool_threads() == 1;
        if layer.get(m.name).is_none() && !optional {
            return Err(format!("{workload} did not measure declared {}", m.name));
        }
    }
    for (name, _) in layer.iter() {
        if !metrics::declared(workload).any(|m| m.name == name) {
            return Err(format!("{workload} measured undeclared {name}"));
        }
    }
    Ok(())
}
