//! `hmmscan` — scan target sequences against a library of profile HMMs
//! (the per-target inverse of `hmmsearch`; Pfam-annotation style).
//!
//! ```sh
//! hmmscan <models.hmm> <targets.fasta|targets.h3wdb> [options]
//!
//! options:
//!   -E <evalue>          report threshold (default 10.0)
//!   --no-fused           score each family in its own database sweep
//!                        instead of the fused multi-profile sweep
//!   --threads <n>        size the CPU worker pool (0 or absent = the
//!                        shared global pool; hits are bit-identical
//!                        either way)
//!   --profile            collect scan telemetry; print the per-family
//!                        funnel table and the telemetry JSON
//!   --profile-json <p>   collect scan telemetry; write the JSON to p
//! ```
//!
//! `models.hmm` may hold any number of concatenated HMMER3 records (as
//! Pfam releases do). By default the scan is **fused**: models are
//! length-binned into packs and the batched MSV kernel interleaves
//! each pack against every sequence block, so one pass over the database
//! feeds every resident model (the multi-HMM direction of the paper's
//! §VI). `--no-fused` falls back to one independent pipeline sweep per
//! family; both paths produce bit-identical hits and E-values. Targets
//! may be FASTA or a packed `.h3wdb` database. Output lists, per target,
//! the families that hit it, best E-value first.

use hmmer3_warp::cli::{self, Args, ToolError};
use hmmer3_warp::hmm::hmmio::read_hmm_many;
use hmmer3_warp::pipeline::{best_hits_per_target, scan_traced, ExecPlan, PipelineConfig, Trace};
use std::process::ExitCode;

const USAGE: &str = "hmmscan <models.hmm> <targets.fasta|targets.h3wdb> [-E evalue] \
[--no-fused] [--threads n] [--profile] [--profile-json path]";

fn main() -> ExitCode {
    cli::guarded_main("hmmscan", USAGE, run)
}

fn run(argv: &[String]) -> Result<(), ToolError> {
    let args = Args::parse(
        argv,
        &["--fused", "--no-fused", "--profile"],
        &["-E", "--threads", "--profile-json"],
    )?;
    let hmm_path = args.positional(0, "model library")?;
    let db_path = args.positional(1, "target database")?;
    args.no_extra_positionals(2)?;
    if args.has("--fused") && args.has("--no-fused") {
        return Err("--fused and --no-fused are mutually exclusive"
            .to_string()
            .into());
    }
    let fused = !args.has("--no-fused");

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
        "scanning {} sequences against {} families ({} sweep)...",
        db.len(),
        models.len(),
        if fused { "fused" } else { "per-model" }
    );
    let report = scan_traced(&models, &db, config, &ExecPlan::Cpu, fused, 0x5ca9, &trace)?;
    let results = report.results;

    println!("# per-family summary");
    for fr in &results {
        println!(
            "{:<24} M={:<5} msv_pass={:<6} vit_pass={:<5} hits={}",
            fr.family,
            fr.m,
            fr.passed.0,
            fr.passed.1,
            fr.hits.len()
        );
    }
    println!();
    println!("# per-target assignments (best family first)");
    let per_target = best_hits_per_target(&results);
    if per_target.is_empty() {
        println!("(no hits)");
    }
    for (seqid, matches) in per_target {
        let name = &db.seqs[seqid as usize].name;
        print!("{name:<24}");
        for m in matches.iter().take(4) {
            print!("  {} (E={:.2e})", m.family, m.evalue);
        }
        if matches.len() > 4 {
            print!("  +{} more", matches.len() - 4);
        }
        println!();
    }

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
