//! `hmmsearch` — search a profile HMM against a FASTA database.
//!
//! ```sh
//! hmmsearch <query.hmm> <targets.fasta|targets.h3wdb> [options]
//!
//! options:
//!   --gpu <k40|gtx580>   run MSV+Viterbi on the simulated device
//!   --devices <n>        partition the device stages over a pool of n
//!                        simulated GPUs; each stage's time is the
//!                        slowest device's (default 1; requires --gpu)
//!   --max                disable the filter cascade (full sensitivity)
//!   -E <evalue>          report threshold (default 10.0)
//!   --ali                print alignment blocks for each hit
//!   --dom                print posterior-decoded domain intervals
//!   --null2              apply the biased-composition score correction
//!   --tbl <path>         write a tab-separated hit table
//!   --chunk <residues>   stream the database (FASTA or .h3wdb) through
//!                        the pipeline in bounded-memory chunks; composes
//!                        with any execution plan, memory stays bounded
//!                        by the chunk size, hits are bit-identical to an
//!                        unchunked run (but excludes --ali/--dom, which
//!                        need the database resident)
//!   --checkpoint <path>  with --chunk: persist sweep state after every
//!                        chunk and resume from it if it already exists
//!   --gpu-full           put the Forward stage on the device pool too
//!                        (composes with --gpu and --devices; alone it
//!                        means --gpu k40)
//!   --profile            collect funnel telemetry; print the per-stage
//!                        table and the telemetry JSON after the report
//!   --profile-json <p>   collect funnel telemetry; write the JSON to p
//!   --threads <n>        size the CPU worker pool (0 or absent = the
//!                        shared global pool, sized by H3W_THREADS or
//!                        the machine; hits are bit-identical either way)
//! ```
//!
//! Runs the full HMMER3-style task pipeline (Fig. 1 of the paper):
//! MSV filter → P7Viterbi filter → Forward, with calibrated E-values.
//! Every deployment dispatches through `Pipeline::search`: the CPU plan,
//! or the one device plan, `ExecPlan::Devices`.

use hmmer3_warp::cli::{self, Args, ToolError};
use hmmer3_warp::hmm::hmmio::read_hmm;
use hmmer3_warp::pipeline::{
    search_chunks, ExecPlan, Pipeline, PipelineConfig, PipelineResult, StreamError, StreamOptions,
    Trace,
};
use hmmer3_warp::prelude::*;
use std::process::ExitCode;

const USAGE: &str =
    "hmmsearch <query.hmm> <targets.fasta|targets.h3wdb> [--gpu k40|gtx580] [--devices n] \
[--max] [-E evalue] [--ali] [--dom] [--null2] [--tbl path] [--chunk residues] \
[--checkpoint path] [--gpu-full] [--profile] [--profile-json path] [--threads n]";

fn main() -> ExitCode {
    cli::guarded_main("hmmsearch", USAGE, run)
}

fn device_by_name(name: &str) -> Result<DeviceSpec, String> {
    match name {
        "k40" => Ok(DeviceSpec::tesla_k40()),
        "gtx580" => Ok(DeviceSpec::gtx_580()),
        other => Err(format!("unknown device {other:?} (expected k40 or gtx580)")),
    }
}

fn run(argv: &[String]) -> Result<(), ToolError> {
    let args = Args::parse(
        argv,
        &[
            "--max",
            "--ali",
            "--dom",
            "--null2",
            "--gpu-full",
            "--profile",
        ],
        &[
            "--gpu",
            "--devices",
            "-E",
            "--tbl",
            "--chunk",
            "--checkpoint",
            "--profile-json",
            "--threads",
        ],
    )?;
    let hmm_path = args.positional(0, "query .hmm")?;
    let fa_path = args.positional(1, "target FASTA")?;
    args.no_extra_positionals(2)?;

    let mut builder = PipelineConfig::builder();
    if args.has("--max") {
        builder = builder.max_sensitivity();
    }
    builder = builder.null2(args.has("--null2"));
    if let Some(e) = args.parse_value::<f64>("-E")? {
        builder = builder.report_evalue(cli::require_positive_finite("-E", e)?);
    }
    if let Some(n) = args.parse_value::<usize>("--threads")? {
        builder = builder.threads(n);
    }
    let config = builder.build()?;
    let gpu = args.value("--gpu").map(device_by_name).transpose()?;
    let devices = match args.parse_value::<usize>("--devices")? {
        None => 1,
        Some(0) => return Err("--devices must be at least 1".to_string().into()),
        Some(_) if gpu.is_none() => return Err("--devices requires --gpu".to_string().into()),
        Some(n) => n,
    };
    let chunk = match args.parse_value::<u64>("--chunk")? {
        Some(0) => return Err("--chunk must be at least 1 residue".to_string().into()),
        other => other,
    };
    let checkpoint = args.value("--checkpoint");
    if checkpoint.is_some() && chunk.is_none() {
        return Err(
            "--checkpoint requires --chunk (it checkpoints the chunk stream)"
                .to_string()
                .into(),
        );
    }
    if chunk.is_some() && (args.has("--ali") || args.has("--dom")) {
        return Err(
            "--ali/--dom re-derive alignments from the resident database; \
             drop --chunk (or drop --ali/--dom)"
                .to_string()
                .into(),
        );
    }
    let profiling = args.has("--profile") || args.value("--profile-json").is_some();
    if profiling && checkpoint.is_some() {
        return Err(
            "--profile does not compose with --checkpoint (telemetry is not \
             persisted across resumes); drop one"
                .to_string()
                .into(),
        );
    }
    let trace = if profiling {
        Trace::named("hmmsearch")
    } else {
        Trace::off()
    };

    let hmm_text = cli::read_file(hmm_path)?;
    let parsed = read_hmm(&hmm_text).map_err(|e| format!("{hmm_path}: {e}"))?;
    let pipe = Pipeline::prepare(&parsed.model, config, 0x5_eac4);

    // One device plan: --gpu picks the device (--gpu-full alone means
    // k40), --devices the pool size, --gpu-full puts Forward on it too.
    let forward_on_device = args.has("--gpu-full");
    let plan = match gpu.or_else(|| forward_on_device.then(DeviceSpec::tesla_k40)) {
        None => ExecPlan::Cpu,
        Some(dev) => {
            let stages = match forward_on_device {
                true => "all three stages",
                false => "MSV + P7Viterbi",
            };
            eprintln!("running {stages} on {devices} simulated {}", dev.name);
            ExecPlan::Devices {
                dev,
                n_devices: devices,
                forward_on_device,
            }
        }
    };

    let banner = |label: &str, n_seqs: usize, residues: u64| {
        eprintln!(
            "query {} ({} columns) vs {label} ({n_seqs} sequences, {residues} residues)",
            parsed.model.name,
            parsed.model.len(),
        );
    };
    let no_sequences = || ToolError::from(format!("{fa_path}: no sequences"));

    // --chunk streams the database through the pipeline in bounded-memory
    // chunks (any ExecPlan); without it the database is loaded resident.
    let mut resident: Option<hmmer3_warp::seqdb::SeqDb> = None;
    let result: PipelineResult = match chunk {
        None => {
            let db = cli::load_seqdb(fa_path)?;
            if db.is_empty() {
                return Err(no_sequences());
            }
            banner(&db.name, db.len(), db.total_residues());
            let res = pipe.search_traced(&db, &plan, &trace)?.result;
            resident = Some(db);
            res
        }
        Some(max) => {
            use hmmer3_warp::seqdb::{DiskDb, FastaFileSource, SeqSource};
            let fa = std::path::Path::new(fa_path);
            let path = checkpoint.map(std::path::Path::new);
            let source: Box<dyn SeqSource> = if fa_path.ends_with(".h3wdb") {
                Box::new(DiskDb::load(fa).map_err(|e| format!("{fa_path}: {e}"))?)
            } else {
                let fasta = FastaFileSource::open(fa).map_err(|e| format!("{fa_path}: {e}"))?;
                if path.is_some() {
                    fasta.scan().map_err(|e| format!("{fa_path}: {e}"))?;
                }
                Box::new(fasta)
            };
            // A checkpoint pins the sweep's E-value scale and the whole
            // database's identity before its first chunk, which costs a
            // FASTA file a validating pass of its own (`scan` above). A
            // plain sweep reads the file once and learns the size from
            // the stream, so its banner and its empty-database error come
            // after the sweep.
            let pinned = path.map(|p| (p, source.n_seqs(), source.identity()));
            if let Some((_, n_seqs, _)) = pinned {
                if n_seqs == 0 {
                    return Err(no_sequences());
                }
                banner(source.label(), n_seqs, source.total_residues());
            }
            eprintln!("streaming in ≤{max}-residue chunks");
            let options = StreamOptions {
                checkpoint: pinned.map(|(p, _, identity)| (p, identity)),
                observer: None,
            };
            let total_seqs = pinned.map(|(_, n_seqs, _)| n_seqs);
            let report = search_chunks(
                &pipe,
                source.chunks(max),
                total_seqs,
                &plan,
                options,
                &trace,
            )
            .map_err(|e| -> ToolError {
                match e {
                    StreamError::Source(e) => format!("{fa_path}: {e}").into(),
                    StreamError::Checkpoint(e) => e.into(),
                    other => other.to_string().into(),
                }
            })?;
            let res = report.result;
            if res.db_size == 0 {
                return Err(no_sequences());
            }
            if pinned.is_none() {
                banner(source.label(), res.db_size, res.stages[0].residues_in);
            }
            if let Some(path) = path {
                // Only once the file has been read and accepted.
                if report.resumed_chunks > 0 {
                    let k = report.resumed_chunks;
                    eprintln!(
                        "swept from chunk {k} on, resuming from checkpoint {}",
                        path.display()
                    );
                }
                eprintln!("checkpoint saved to {}", path.display());
            }
            res
        }
    };

    print!("{}", result.render());

    // --ali/--dom are rejected with --chunk, so they find the database
    // resident.
    let alignments = args.has("--ali") || args.has("--dom");
    if let Some(db) = resident.as_ref().filter(|_| alignments) {
        for hit in result.hits.iter().take(25) {
            println!();
            println!(
                ">> {}  (fwd {:.2} nats, E = {:.3e})",
                hit.name, hit.fwd_score, hit.evalue
            );
            if args.has("--dom") {
                for (n, d) in pipe.domains_for_hit(db, hit).iter().enumerate() {
                    println!(
                        "   domain {}: residues {}..{} (mean posterior {:.2})",
                        n + 1,
                        d.i_start,
                        d.i_end,
                        d.mean_posterior
                    );
                }
            }
            if args.has("--ali") {
                let (_, text) = pipe.align_hit(&parsed.model, db, hit);
                print!("{text}");
            }
        }
    }

    if let Some(path) = args.value("--tbl") {
        let mut out = String::from("#target\tfwd_nats\tmsv_nats\tvit_nats\tpvalue\tevalue\n");
        for h in &result.hits {
            out.push_str(&format!(
                "{}\t{:.3}\t{:.3}\t{:.3}\t{:.3e}\t{:.3e}\n",
                h.name, h.fwd_score, h.msv_score, h.vit_score, h.pvalue, h.evalue
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if let Some(tel) = trace.snapshot() {
        if args.has("--profile") {
            println!();
            print!("{}", tel.render_funnel());
            println!("{}", tel.to_json());
        }
        if let Some(path) = args.value("--profile-json") {
            std::fs::write(path, tel.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}
