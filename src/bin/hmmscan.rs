//! `hmmscan` — scan target sequences against a library of profile HMMs
//! (the per-target inverse of `hmmsearch`; Pfam-annotation style).
//! `hmmscan --help` prints the options (`OPTIONS`).
//!
//! `models.hmm` may hold any number of concatenated HMMER3 records (as
//! Pfam releases do). The scan is **fused**: each filter stage is one
//! pool fan-out over every model's length-binned sequence batches (the
//! multi-HMM direction of the paper's §VI); hits and E-values are
//! bit-identical to one independent pipeline sweep per family.
//! `--threads` sizes the calibration fan-out too. Targets may be FASTA
//! or a packed `.h3wdb` database. Output lists, per target, the families
//! that hit it, best E-value first.

use hmmer3_warp::cli::{self, Args, ToolError};
use hmmer3_warp::hmm::hmmio::read_hmm_many;
use hmmer3_warp::pipeline::{scan, PipelineConfig, Trace};
use std::process::ExitCode;

const USAGE: &str = "hmmscan <models.hmm> <targets.fasta|targets.h3wdb> [-E evalue] \
[--threads n] [--profile] [--profile-json path]";

const OPTIONS: &str = "  -E <evalue>          report threshold (default 10.0)
  --threads <n>        size the CPU worker pool (0 or absent = the
                       shared global pool; hits are bit-identical
                       either way)
  --profile            collect scan telemetry; print the per-family
                       funnel table and the telemetry JSON
  --profile-json <p>   collect scan telemetry; write the JSON to p";

fn main() -> ExitCode {
    cli::guarded_main("hmmscan", USAGE, OPTIONS, run)
}

fn run(argv: &[String]) -> Result<(), ToolError> {
    let args = Args::parse(argv, &["--profile"], &["-E", "--threads", "--profile-json"])?;
    let hmm_path = args.positional(0, "model library")?;
    let db_path = args.positional(1, "target database")?;
    args.no_extra_positionals(2)?;

    let mut builder = PipelineConfig::builder();
    if let Some(e) = args.parse_value::<f64>("-E")? {
        builder = builder.report_evalue(cli::require_positive_finite("-E", e)?);
    }
    if let Some(n) = args.parse_value::<usize>("--threads")? {
        builder = builder.threads(n);
    }
    let config = builder.build()?;

    let profiling = args.has("--profile") || args.value("--profile-json").is_some();
    let trace = if profiling {
        Trace::named("hmmscan")
    } else {
        Trace::off()
    };

    let hmm_text = cli::read_file(hmm_path)?;
    let models: Vec<_> = read_hmm_many(&hmm_text)
        .map_err(|e| format!("{hmm_path}: {e}"))?
        .into_iter()
        .map(|f| f.model)
        .collect();
    if models.is_empty() {
        return Err(format!("{hmm_path}: no models").into());
    }
    let db = cli::load_seqdb(db_path)?;
    if db.is_empty() {
        return Err(format!("{db_path}: no sequences").into());
    }
    eprintln!(
        "scanning {} sequences against {} families (fused sweep)...",
        db.len(),
        models.len()
    );
    let report = scan(&models, &db, config, 0x5ca9, &trace)?;
    print!("{}", cli::render_scan(&report.results, &db));

    if let Some(tel) = report.telemetry {
        if args.has("--profile") {
            println!();
            print!("{}", tel.render_scan());
            println!("{}", tel.to_json());
        }
        if let Some(path) = args.value("--profile-json") {
            std::fs::write(path, tel.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}
