//! `h3w-serve` — the long-lived search daemon.
//!
//! ```sh
//! h3w-serve <db.h3wdb> [options]
//!
//! options:
//!   --addr A:P           listen address (default 127.0.0.1:0; the bound
//!                        address is printed once the listener is up)
//!   --workers N          concurrent query slots (default 2)
//!   --queue-depth N      bounded admission queue; arrivals beyond it are
//!                        shed with a typed Overloaded error (default 8)
//!   --deadline-ms MS     default per-query deadline; 0 = none (default 0)
//!   --shard-residues N   shard granularity — deadline checks fire at
//!                        shard boundaries (0 = default 1 MiResidue)
//!   --gpu k40|gtx580     run MSV+Viterbi on simulated devices
//!   --devices N          simulated device pool size, the database
//!                        partitioned across it (requires --gpu)
//!   --chaos-panic-model NAME   panic inside queries for model NAME
//!   --chaos-slow-ms MS         sleep MS at every shard boundary
//! ```
//!
//! Loads the packed database (rejecting any corruption with a typed
//! diagnostic and exit 1 — never a panic), serves until SIGTERM/SIGINT,
//! then drains: stops accepting, finishes in-flight queries, prints the
//! final metrics document to stdout, exits 0.
//!
//! Every query runs on the process-global CPU pool, which
//! `H3W_THREADS=N` sizes (default: every available core), so the
//! daemon's thread count does not grow with the query models it caches.

use hmmer3_warp::cli::{self, Args, ToolError};
use hmmer3_warp::prelude::*;
use hmmer3_warp::serve::{ChaosConfig, ResidentDb, ServeConfig, Server};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "h3w-serve <db.h3wdb> [--addr A:P] [--workers n] [--queue-depth n] \
[--deadline-ms ms] [--shard-residues n] [--gpu k40|gtx580] [--devices n] \
[--chaos-panic-model name] [--chaos-slow-ms ms]";

fn main() -> ExitCode {
    cli::guarded_main("h3w-serve", USAGE, run)
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
        &[],
        &[
            "--addr",
            "--workers",
            "--queue-depth",
            "--deadline-ms",
            "--shard-residues",
            "--gpu",
            "--devices",
            "--chaos-panic-model",
            "--chaos-slow-ms",
        ],
    )?;
    let db_path = args.positional(0, "packed database (.h3wdb)")?;
    args.no_extra_positionals(1)?;

    let gpu = args.value("--gpu").map(device_by_name).transpose()?;
    let devices = match args.parse_value::<usize>("--devices")? {
        None => 1,
        Some(0) => return Err("--devices must be at least 1".to_string().into()),
        Some(_) if gpu.is_none() => return Err("--devices requires --gpu".to_string().into()),
        Some(n) => n,
    };

    let cfg = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: match args.parse_value::<usize>("--workers")? {
            Some(0) => return Err("--workers must be at least 1".to_string().into()),
            Some(n) => n,
            None => 2,
        },
        queue_depth: args.parse_value::<usize>("--queue-depth")?.unwrap_or(8),
        default_deadline_ms: args.parse_value::<u64>("--deadline-ms")?.unwrap_or(0),
        plan: gpu.map_or(ExecPlan::Cpu, |dev| ExecPlan::Devices {
            dev,
            n_devices: devices,
            forward_on_device: false,
        }),
        chaos: ChaosConfig {
            panic_model: args.value("--chaos-panic-model").map(str::to_string),
            slow_shard_ms: args.parse_value::<u64>("--chaos-slow-ms")?.unwrap_or(0),
        },
    };

    let shard_residues = args.parse_value::<u64>("--shard-residues")?.unwrap_or(0);
    let db = Arc::new(ResidentDb::load(
        std::path::Path::new(db_path),
        shard_residues,
    )?);
    eprintln!(
        "loaded {db_path}: {} sequences, {} residues, {} shards, content hash {:016x}",
        db.total_seqs,
        db.total_residues,
        db.shards.len(),
        db.content_hash
    );

    hmmer3_warp::serve::sig::install();
    let server = Server::bind(cfg, db)?;
    // Machine-greppable: tests and scripts parse this line for the port.
    println!("listening on {}", server.local_addr());
    let final_metrics = server.run(hmmer3_warp::serve::sig::termination_requested())?;
    eprintln!("drained; final metrics follow");
    println!("{final_metrics}");
    Ok(())
}
