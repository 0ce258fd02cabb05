//! The driver: runs each workload's phases as child processes of this
//! binary, gathers their files into one result document, and speaks the
//! two command lines (`all`, and the `BENCHMARK.json` contract's
//! `--workload .. --seed .. --seconds .. --trace ..`).

use crate::json::{self, Json};
use crate::layers;
use crate::metrics::{self, PEAK_RSS_MB, SETUP_S, WALL_S};
use crate::phases::{LAYERS_FILE, RUN_FILE, SETUP_FILE};
use crate::stats::{median, Summary};
use crate::workloads::Metrics;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Set-ups per end-to-end run: `setup_s` is their median.
const SETUPS: usize = 3;
/// The issue's floor on timed repetitions per run.
pub const MIN_REPS: usize = 5;
/// Seconds of timed repetitions per run: `run_seconds` of the contract
/// and the default of `all`.
pub const RUN_SECONDS: f64 = 15.0;

/// What one invocation of the driver runs with.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every generator and of the query order.
    pub seed: u64,
    /// Size factor applied to every workload.
    pub scale: f64,
    /// Seconds of timed repetitions per `run` phase.
    pub seconds: f64,
    /// Timed repetitions per `run` phase, at least.
    pub min_reps: usize,
    /// Directory for inputs, phase files, traces and `results.json`.
    pub out: PathBuf,
}

/// Where phase files go when `--out` is not given: under the cargo
/// target directory, which the checkout already ignores.
pub fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("h3w-benchmark")
}

/// Threads every child's pool gets: `min(nproc, 4)`.
fn threads() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the environment the program under test reads, for this process
/// and every child: pool width fixed, no ambient profiling or backend
/// override.
pub fn pin_environment() {
    std::env::set_var("H3W_THREADS", threads().to_string());
    std::env::remove_var("H3W_PROFILE");
    std::env::remove_var("H3W_SIMD_BACKEND");
}

/// Run one phase as a child of this binary; returns its wall.
fn phase(name: &str, workload: &str, dir: &Path, extra: &[(&str, String)]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(name).arg("--workload").arg(workload);
    cmd.arg("--dir").arg(dir);
    for (flag, value) in extra {
        cmd.arg(flag).arg(value);
    }
    let start = Instant::now();
    let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    if status.success() {
        Ok(wall)
    } else {
        Err(format!("{workload}: phase {name} failed ({status})"))
    }
}

fn setup_phase(cfg: &Config, workload: &str, dir: &Path) -> Result<f64, String> {
    phase(
        "setup",
        workload,
        dir,
        &[
            ("--seed", cfg.seed.to_string()),
            ("--scale", cfg.scale.to_string()),
        ],
    )
}

/// One workload's end-to-end samples.
pub struct EndToEndRun {
    /// Samples per end-to-end metric, keyed by metric name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Hit lists compared.
    pub attempted: u64,
    /// Hit lists that errored or differed.
    pub failed: u64,
    /// Input facts from `setup`.
    pub input: Metrics,
}

impl EndToEndRun {
    fn samples_of(&self, name: &str) -> &[f64] {
        let found = self.samples.iter().find(|(n, _)| *n == name);
        &found.expect("every end-to-end metric is sampled").1
    }
}

/// `setup` x [`SETUPS`], then `run` with tracing off.
pub fn end_to_end(cfg: &Config, workload: &str) -> Result<EndToEndRun, String> {
    let dir = cfg.out.join(workload);
    let setups = (0..SETUPS)
        .map(|_| setup_phase(cfg, workload, &dir))
        .collect::<Result<Vec<f64>, String>>()?;
    phase(
        "run",
        workload,
        &dir,
        &[
            ("--seconds", cfg.seconds.to_string()),
            ("--reps", cfg.min_reps.to_string()),
        ],
    )?;
    let input = json::read_file(&dir.join(SETUP_FILE))?;
    let input = Metrics::from_json(input.get("input").unwrap_or(&Json::Null));
    let run = json::read_file(&dir.join(RUN_FILE))?;
    Ok(EndToEndRun {
        samples: vec![
            (WALL_S, run.nums_at("wall_s")?),
            (PEAK_RSS_MB, vec![run.num_at("peak_rss_mb")?]),
            (SETUP_S, setups),
        ],
        attempted: run.num_at("attempted")? as u64,
        failed: run.num_at("failed")? as u64,
        input,
    })
}

/// One workload's traced run.
pub struct LayersRun {
    /// The per-layer metrics the workload declares.
    pub metrics: Metrics,
    /// Hit lists compared in the traced operation.
    pub attempted: u64,
    /// Hit lists that errored or differed.
    pub failed: u64,
}

/// The `layers` phase, after a `setup` of its own when `fresh_setup`.
pub fn traced(cfg: &Config, workload: &str, fresh_setup: bool) -> Result<LayersRun, String> {
    let dir = cfg.out.join(workload);
    if fresh_setup {
        setup_phase(cfg, workload, &dir)?;
    }
    phase("layers", workload, &dir, &[])?;
    let doc = json::read_file(&dir.join(LAYERS_FILE))?;
    Ok(LayersRun {
        metrics: Metrics::from_json(doc.get("metrics").unwrap_or(&Json::Null)),
        attempted: doc.num_at("attempted")? as u64,
        failed: doc.num_at("failed")? as u64,
    })
}

/// The `BENCHMARK.json` command line: one workload, one result object as
/// the last line of standard output. `--trace 0` reports every end-to-end
/// metric; `--trace 1` every per-layer metric, where one this workload
/// does not measure reads 0 (its layer did no work here).
pub fn contract(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    pin_environment();
    let cfg = Config {
        seed,
        scale: crate::workloads::DEFAULT_SCALE,
        seconds,
        min_reps: MIN_REPS,
        out: default_out().join(format!("contract-{}", std::process::id())),
    };
    let result = contract_run(&cfg, workload, trace);
    // Inputs are tens of megabytes per workload; leave nothing behind.
    let _ = std::fs::remove_dir_all(&cfg.out);
    let (attempted, failed, values) = result?;
    let doc = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(values.into_iter().map(|(name, unit, value)| {
                let entry = [
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ];
                (name, Json::obj(entry))
            })),
        ),
    ]);
    println!("{}", doc.compact());
    // A printed result is a finished run: `correct` carries the verdict.
    Ok(true)
}

type ContractValues = Vec<(&'static str, &'static str, f64)>;

fn contract_run(
    cfg: &Config,
    workload: &str,
    trace: bool,
) -> Result<(u64, u64, ContractValues), String> {
    if trace {
        let run = traced(cfg, workload, true)?;
        let values = metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, run.metrics.get(m.name).unwrap_or(0.0)))
            .collect();
        Ok((run.attempted, run.failed, values))
    } else {
        let run = end_to_end(cfg, workload)?;
        let values = metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, median(run.samples_of(m.name))))
            .collect();
        Ok((run.attempted, run.failed, values))
    }
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `all`: every workload's end-to-end and traced runs, one row printed
/// per (workload, metric), everything written to `<out>/results.json`.
/// Returns false when any hit list differed from its reference.
pub fn all(cfg: &Config) -> Result<bool, String> {
    pin_environment();
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("create {}: {e}", cfg.out.display()))?;
    let mut workloads_json = Vec::new();
    let mut repetitions = Vec::new();
    let mut clean = true;
    println!(
        "{:<18} {:<36} {:>14} {:<8} {:>5} {:>12} {:>12} {:>10}",
        "workload", "metric", "median", "unit", "n", "min", "max", "iqr"
    );
    for w in metrics::WORKLOADS {
        let e2e = end_to_end(cfg, w.name)?;
        let layers = traced(cfg, w.name, false)?;
        let mut e2e_json = Vec::new();
        for m in metrics::END_TO_END {
            let s = Summary::of(e2e.samples_of(m.name));
            println!(
                "{:<18} {:<36} {:>14.6} {:<8} {:>5} {:>12.6} {:>12.6} {:>10.6}",
                w.name, m.name, s.median, m.unit, s.n, s.min, s.max, s.iqr
            );
            e2e_json.push((m.name, s.to_json(m.unit)));
        }
        let mut layer_json = Vec::new();
        for m in metrics::declared(w.name) {
            // Only `pool.speedup_nproc` on a one-thread host can be absent.
            let Some(value) = layers.metrics.get(m.name) else {
                continue;
            };
            println!(
                "{:<18} {:<36} {:>14.6} {:<8} {:>5}",
                w.name, m.name, value, m.unit, 1
            );
            let entry = [
                ("unit", Json::Str(m.unit.into())),
                ("value", Json::Num(value)),
            ];
            layer_json.push((m.name, Json::obj(entry)));
        }
        let attempted = e2e.attempted + layers.attempted;
        let failed = e2e.failed + layers.failed;
        println!(
            "{:<18} check: {attempted} hit lists compared with the reference, {failed} differed",
            w.name
        );
        clean &= failed == 0;
        let reps = e2e.samples_of(WALL_S).len();
        repetitions.push((w.name, Json::Num(reps as f64)));
        workloads_json.push((
            w.name,
            Json::obj([
                ("input", e2e.input.to_json()),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("end_to_end", Json::obj(e2e_json)),
                ("per_layer", Json::obj(layer_json)),
            ]),
        ));
    }
    let host = Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads() as f64)),
        ("simd_backend", Json::Str(layers::simd_backend().into())),
        ("git_rev", Json::Str(git_revision())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("scale", Json::Num(cfg.scale)),
        ("setups", Json::Num(SETUPS as f64)),
        ("repetitions", Json::obj(repetitions)),
    ]);
    let doc = Json::obj([("host", host), ("workloads", Json::obj(workloads_json))]);
    let path = cfg.out.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(clean)
}

/// The `BENCHMARK.json` the tables in [`metrics`] stand for, so the file
/// at the repository root is generated, never edited.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "-q",
                "-p",
                "h3w-benchmark",
                "--",
            ]),
        ),
        ("paths", strs(&["crates/benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                metrics::WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
