//! `hmmbuild` — build and calibrate a profile HMM from an alignment.
//!
//! ```sh
//! hmmbuild <out.hmm> <alignment.afa> [--name NAME]
//! hmmbuild <out.hmm> --synthetic M [--seed S] [--gappy]
//! ```
//!
//! The alignment is aligned FASTA (`-`/`.` gaps). `--synthetic M`
//! generates a seeded M-column model instead (useful for benchmarks).
//! The output carries `STATS LOCAL` calibration lines fitted with this
//! crate's striped filters, so `hmmsearch` can skip recalibration.

use hmmer3_warp::cli::{self, Args, ToolError};
use hmmer3_warp::hmm::hmmio::write_hmm;
use hmmer3_warp::hmm::msa::{build_from_msa, Msa, MsaBuildParams};
use hmmer3_warp::pipeline::{Pipeline, PipelineConfig};
use hmmer3_warp::prelude::*;
use std::process::ExitCode;

const USAGE: &str = "hmmbuild <out.hmm> <alignment.afa> [--name NAME]\n       \
hmmbuild <out.hmm> --synthetic M [--seed S] [--gappy]";

fn main() -> ExitCode {
    cli::guarded_main("hmmbuild", USAGE, run)
}

fn run(argv: &[String]) -> Result<(), ToolError> {
    let args = Args::parse(argv, &["--gappy"], &["--synthetic", "--seed", "--name"])?;
    let out_path = args.positional(0, "output path")?;
    let model = if let Some(m) = args.parse_value::<usize>("--synthetic")? {
        args.no_extra_positionals(1)?;
        if m == 0 {
            return Err("--synthetic model length must be at least 1".into());
        }
        let seed = args.parse_value::<u64>("--seed")?.unwrap_or(42);
        let params = if args.has("--gappy") {
            BuildParams::gappy()
        } else {
            BuildParams::default()
        };
        synthetic_model(m, seed, &params)
    } else {
        let in_path = args.positional(1, "alignment path")?;
        args.no_extra_positionals(2)?;
        let text = cli::read_file(in_path)?;
        let msa = Msa::parse_afa(&text).map_err(|e| format!("{in_path}: {e}"))?;
        let name = args.value("--name").map(str::to_string).unwrap_or_else(|| {
            std::path::Path::new(in_path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "model".into())
        });
        let mut model =
            build_from_msa(&msa, &name, &MsaBuildParams::default()).map_err(|e| e.to_string())?;
        model.name = name;
        eprintln!(
            "built {} ({} match columns from {} aligned rows)",
            model.name,
            model.len(),
            msa.n_rows()
        );
        model
    };

    {
        let bg = NullModel::new();
        let info = hmmer3_warp::hmm::info::model_info(&model, &bg);
        eprintln!(
            "model info: {:.2} bits/column ({:.0} bits total), mean tDD {:.2}, mean tII {:.2}",
            info.mean_re_bits, info.total_re_bits, info.mean_dd, info.mean_ii
        );
    }
    eprintln!("calibrating score statistics...");
    let pipe = Pipeline::prepare(&model, PipelineConfig::default(), 0xb111d);
    let text = write_hmm(&model, Some(&pipe.cal));
    std::fs::write(out_path, text).map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path}: {} columns, mu_msv {:.2}, mu_vit {:.2}, tau_fwd {:.2}",
        model.len(),
        pipe.cal.mu_msv,
        pipe.cal.mu_vit,
        pipe.cal.tau_fwd
    );
    Ok(())
}
