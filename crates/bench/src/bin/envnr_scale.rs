//! Full-scale Env_nr streamed sweep — the paper's headline workload at
//! its real size (6,549,721 sequences / 1.29 G residues), swept in
//! constant memory through the `SeqSource` streaming driver.
//!
//! The database is a generation recipe (`GenSource`), never
//! materialized: chunks are generated, swept, and dropped, so peak RSS
//! is bounded by the chunk size no matter the database size. The run
//! prints one JSON record to stdout: per-stage wall-clock, residues/sec,
//! analytic bytes-moved and bandwidth (from the striped kernels' row
//! geometry), chunk counts, and the process peak RSS.
//!
//! Before measuring, the bin proves the streamed sweep honest: at 0.001
//! scale it materializes the same recipe in memory and asserts the
//! streamed hits are bit-identical to a single-pass `Pipeline::search`.
//!
//! Usage:
//!   cargo run --release -p h3w-bench --bin envnr_scale [--] \
//!     [--scale F] [--chunk-mres N] [--rss-limit-mb N]
//!
//! `--scale` scales the sequence count (default 1.0 = full Env_nr; CI
//! runs 0.01); `--chunk-mres` sets the chunk bound in megaresidues
//! (default 32); `--rss-limit-mb` exits nonzero if peak RSS exceeds the
//! ceiling. An unknown argument, or a flag whose value is missing or does
//! not parse, is an error: a mistyped ceiling must not switch the gate off.

use h3w_bench::error::{check, HarnessError};
use h3w_bench::json::Json;
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_pipeline::{search_source, ExecPlan, Pipeline, PipelineConfig, Trace};
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_seqdb::source::{GenSource, SeqSource};
use std::time::Instant;

const MODEL_M: usize = 400;
const MODEL_SEED: u64 = 5;
const DB_SEED: u64 = 0xe9b_2026;

/// `(scale, chunk_mres, rss_limit_mb)` from the command line. Anything
/// but the three flags, a flag without a value, or a value that does not
/// parse is an error, never a default.
fn parse_args() -> Result<(f64, u64, Option<u64>), String> {
    let (mut scale, mut chunk_mres, mut rss_limit_mb) = (1.0f64, 32u64, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if !["--scale", "--chunk-mres", "--rss-limit-mb"].contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let raw = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("{flag}: cannot parse '{raw}'");
        match flag.as_str() {
            "--scale" => scale = raw.parse().map_err(|_| bad)?,
            "--chunk-mres" => chunk_mres = raw.parse().map_err(|_| bad)?,
            _ => rss_limit_mb = Some(raw.parse().map_err(|_| bad)?),
        }
    }
    if !(scale.is_finite() && scale > 0.0 && chunk_mres > 0) {
        return Err("--scale and --chunk-mres must be positive".into());
    }
    Ok((scale, chunk_mres, rss_limit_mb))
}

fn main() -> Result<(), HarnessError> {
    let (scale, chunk_mres, rss_limit_mb) =
        parse_args().map_err(|msg| HarnessError::from(format!("envnr_scale: {msg}")))?;
    let chunk_residues = chunk_mres * 1_000_000;

    let core = synthetic_model(MODEL_M, MODEL_SEED, &BuildParams::default());
    let pipe = Pipeline::prepare(&core, PipelineConfig::default(), 3);
    eprintln!(
        "model M={MODEL_M}, backend {}, {} worker(s)",
        pipe.backend().name(),
        pipe.pool().threads()
    );

    // Honesty gate: at 0.001 scale, the streamed sweep over the recipe
    // must report bit-identical hits to a single-pass in-memory sweep of
    // the materialized database.
    {
        let mut small = DbGenSpec::envnr_like().scaled(0.001);
        small.homolog_fraction = 0.01; // enough homologs to have hits
        let db = generate(&small, Some(&core), DB_SEED);
        let single = pipe.search(&db, &ExecPlan::Cpu)?;
        let src = GenSource::new(small, Some(&core), DB_SEED);
        let streamed = search_source(
            &pipe,
            &src,
            &ExecPlan::Cpu,
            chunk_residues.min(200_000),
            &Trace::off(),
        )?;
        check(!single.hits.is_empty(), || {
            "identity gate needs a workload with hits".into()
        })?;
        check(single.hits == streamed.hits, || {
            "streamed hits diverged from the in-memory sweep at 0.001 scale".into()
        })?;
        eprintln!(
            "identity gate: {} hits bit-identical streamed vs in-memory at 0.001 scale",
            single.hits.len()
        );
    }

    // The measured sweep: background-only sequences (throughput is the
    // object here; the funnel still runs its real survivor rates).
    let spec = DbGenSpec::envnr_like().scaled(scale);
    let src = GenSource::new(spec.clone(), None, DB_SEED);
    eprintln!(
        "sweeping {} ({} seqs, ~{} residues expected) in ≤{chunk_mres} Mres chunks",
        spec.name,
        src.n_seqs(),
        src.total_residues()
    );
    let trace = Trace::named("envnr_scale");
    let t0 = Instant::now();
    let result = search_source(&pipe, &src, &ExecPlan::Cpu, chunk_residues, &trace)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let missing = |what: &str| HarnessError::from(format!("the sweep's trace has no {what}"));
    let tel = trace.snapshot().ok_or_else(|| missing("snapshot"))?;

    let stream = tel
        .at_path("stream")
        .ok_or_else(|| missing("stream node"))?;
    let chunks = stream.counter("chunks");
    let residues = stream.counter("residues_in");
    let peak_rss = stream.counter("peak_rss_bytes");
    eprintln!(
        "swept {} seqs / {residues} residues in {wall_s:.1}s ({:.1} Mres/s) \
         over {chunks} chunks; peak RSS {:.0} MiB",
        result.db_size,
        residues as f64 / wall_s / 1e6,
        peak_rss as f64 / (1 << 20) as f64
    );

    let mut stage_rows = Vec::new();
    for st in &result.stages {
        let path = format!("pipeline/{}", st.name);
        let node = tel.at_path(&path).ok_or_else(|| missing(&path))?;
        let bytes = node.counter("bytes_moved");
        eprintln!(
            "  {:<10} {:>12} res in  {:>9.3}s  {:>7.1} Mres/s  {:>7.2} GB moved  {:>6.2} GB/s",
            st.name,
            st.residues_in,
            st.time_s,
            st.residues_in as f64 / st.time_s.max(1e-9) / 1e6,
            bytes as f64 / 1e9,
            bytes as f64 / st.time_s.max(1e-9) / 1e9
        );
        stage_rows.push(Json::Obj(vec![
            ("name", Json::Str(st.name.clone())),
            ("seqs_in", Json::Num(st.seqs_in as f64)),
            ("seqs_out", Json::Num(st.seqs_out as f64)),
            ("residues_in", Json::Num(st.residues_in as f64)),
            ("time_s", Json::Num(st.time_s)),
            (
                "residues_per_sec",
                Json::Num(st.residues_in as f64 / st.time_s.max(1e-9)),
            ),
            ("bytes_moved", Json::Num(bytes as f64)),
            (
                "bandwidth_bytes_per_sec",
                Json::Num(bytes as f64 / st.time_s.max(1e-9)),
            ),
        ]));
    }

    let section = Json::Obj(vec![
        ("scale", Json::Num(scale)),
        ("n_seqs", Json::Num(result.db_size as f64)),
        ("residues", Json::Num(residues as f64)),
        ("chunk_residues", Json::Num(chunk_residues as f64)),
        ("chunks", Json::Num(chunks as f64)),
        ("model_m", Json::Num(MODEL_M as f64)),
        ("backend", Json::Str(pipe.backend().name().into())),
        ("workers", Json::Num(pipe.pool().threads() as f64)),
        ("wall_s", Json::Num(wall_s)),
        (
            "residues_per_sec",
            Json::Num(residues as f64 / wall_s.max(1e-9)),
        ),
        ("peak_rss_bytes", Json::Num(peak_rss as f64)),
        ("bit_identical_at_0_001", Json::Bool(true)),
        ("stages", Json::Arr(stage_rows)),
    ]);

    println!("{}", section.pretty());

    if let Some(limit_mb) = rss_limit_mb {
        let limit = limit_mb * (1 << 20);
        check(peak_rss <= limit, || {
            format!(
                "peak RSS {peak_rss} bytes exceeds the --rss-limit-mb ceiling \
                 of {limit} bytes — streaming is not constant-memory"
            )
        })?;
        eprintln!("peak RSS within the {limit_mb} MiB ceiling");
    }
    Ok(())
}
