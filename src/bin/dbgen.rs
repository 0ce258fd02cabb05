//! `dbgen` — generate a synthetic FASTA target database (the workspace's
//! substitute for Swiss-Prot / Env_nr; DESIGN.md §2). `dbgen --help`
//! prints the options (`OPTIONS`).
//!
//! Generation streams: sequences are produced in bounded chunks and
//! written as they go, so an Env_nr-scale database (1.29 G residues at
//! `--preset envnr --scale 1`) never has to fit in memory. The FASTA goes
//! to `<out>.tmp` and is renamed into place only when complete, so a
//! failed run leaves no truncated FASTA behind (a target that cannot be
//! renamed over, such as `/dev/full` or a FIFO, is written in place). `--packed`
//! additionally streams the crash-safe binary database format (5-bit
//! packed residues, length-bin index, per-section CRCs, a whole-file
//! content hash; written atomically via tmp + rename) that `h3w-serve`
//! loads at startup — byte-identical to an in-memory write.

use hmmer3_warp::cli::{self, Args, ToolError};
use hmmer3_warp::hmm::hmmio::read_hmm;
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::gen::gen_chunks;
use hmmer3_warp::seqdb::{fasta, DiskDbWriter};
use std::ffi::OsString;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "dbgen <out.fasta> [--preset swissprot|envnr] [--scale F] [--hom FRAC --model query.hmm] \
[--seed S] [--packed out.h3wdb]";

const OPTIONS: &str = "  --preset <name>      swissprot (long sequences, the default) or envnr
                       (short sequences)
  --scale <F>          fraction of the preset's full size (default 1e-3)
  --hom <FRAC>         fraction of sequences that are homologs of
                       --model (default: the preset's)
  --model <query.hmm>  model the homologs are sampled from
  --seed <S>           generator seed (default 1)
  --packed <out.h3wdb> also write the packed binary database";

/// Residues generated per in-memory chunk — the working-set bound.
const GEN_CHUNK_RESIDUES: u64 = 16 << 20;

/// The FASTA output. A regular-file target (or a new one) is written to
/// `<out>.tmp`, which [`FastaOut::finish`] renames into place; dropping
/// the writer before that removes the temporary. Any other target is
/// written in place.
struct FastaOut {
    w: BufWriter<File>,
    /// `(temporary, target)` until the rename; `None` when in place.
    tmp: Option<(PathBuf, PathBuf)>,
}

impl FastaOut {
    fn create(target: &str) -> Result<FastaOut, String> {
        let renamable = std::fs::symlink_metadata(target).map_or(true, |m| m.is_file());
        let tmp = renamable.then(|| {
            let mut tmp = OsString::from(target);
            tmp.push(".tmp");
            (PathBuf::from(tmp), PathBuf::from(target))
        });
        let path = tmp
            .as_ref()
            .map_or(PathBuf::from(target), |(t, _)| t.clone());
        let file = File::create(&path).map_err(|e| format!("creating {target}: {e}"))?;
        Ok(FastaOut {
            w: BufWriter::new(file),
            tmp,
        })
    }

    /// Flush every byte, then rename the temporary over the target.
    fn finish(mut self) -> std::io::Result<()> {
        self.w.flush()?;
        if let Some((tmp, target)) = &self.tmp {
            std::fs::rename(tmp, target)?;
        }
        self.tmp = None;
        Ok(())
    }
}

impl Drop for FastaOut {
    fn drop(&mut self) {
        if let Some((tmp, _)) = &self.tmp {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

fn main() -> ExitCode {
    cli::guarded_main("dbgen", USAGE, OPTIONS, run)
}

fn run(argv: &[String]) -> Result<(), ToolError> {
    let args = Args::parse(
        argv,
        &[],
        &[
            "--preset", "--scale", "--hom", "--model", "--seed", "--packed",
        ],
    )?;
    let out_path = args.positional(0, "output path")?;
    args.no_extra_positionals(1)?;
    let mut spec = match args.value("--preset") {
        None | Some("swissprot") => DbGenSpec::swissprot_like(),
        Some("envnr") => DbGenSpec::envnr_like(),
        Some(other) => return Err(format!("unknown preset {other:?}").into()),
    };
    let scale = match args.parse_value::<f64>("--scale")? {
        Some(s) => cli::require_positive_finite("--scale", s)?,
        None => 1e-3,
    };
    spec = spec.scaled(scale);
    if let Some(h) = args.parse_value::<f64>("--hom")? {
        spec.homolog_fraction = cli::require_unit_fraction("--hom", h)?;
    }
    let seed = args.parse_value::<u64>("--seed")?.unwrap_or(1);

    let model = match args.value("--model") {
        Some(path) => {
            let text = cli::read_file(path)?;
            Some(read_hmm(&text).map_err(|e| format!("{path}: {e}"))?.model)
        }
        None => None,
    };
    if spec.homolog_fraction > 0.0 && model.is_none() {
        eprintln!("note: no --model given; homolog fraction is ignored");
    }

    let mut out = FastaOut::create(out_path)?;
    let mut packed = args
        .value("--packed")
        .map(|p| DiskDbWriter::create(std::path::Path::new(p), &spec.name).map(|w| (p, w)))
        .transpose()?;
    let mut n_seqs = 0usize;
    let mut residues = 0u64;
    for chunk in gen_chunks(&spec, model.as_ref(), seed, GEN_CHUNK_RESIDUES) {
        out.w
            .write_all(fasta::render(&chunk).as_bytes())
            .map_err(|e| format!("writing {out_path}: {e}"))?;
        if let Some((_, w)) = packed.as_mut() {
            for s in &chunk.seqs {
                w.push(s)?;
            }
        }
        n_seqs += chunk.len();
        residues += chunk.total_residues();
    }
    out.w
        .flush()
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    // The packed file is sealed before the FASTA is renamed into place, so
    // a failure in either leaves no FASTA behind.
    let packed = packed
        .map(|(packed_path, w)| w.finish().map(|summary| (packed_path, summary)))
        .transpose()?;
    out.finish()
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path}: {n_seqs} sequences, {residues} residues ({})",
        spec.name
    );
    if let Some((packed_path, summary)) = packed {
        eprintln!(
            "wrote {packed_path}: packed format v{}, content hash {:016x}",
            hmmer3_warp::seqdb::diskdb::DISKDB_VERSION,
            summary.content_hash,
        );
    }
    Ok(())
}
