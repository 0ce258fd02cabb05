//! Shared command-line plumbing for the workspace binaries.
//!
//! Every tool gets the same contract: unknown flags, malformed values,
//! and missing operands exit with status 1 and a one-line diagnostic
//! plus the usage string — never a panic backtrace. A panic that does
//! escape a tool (a bug, by definition) is caught at the top level and
//! reported as an internal error, still with a nonzero exit.

use h3w_pipeline::{
    best_hits_per_target, CheckpointError, ConfigError, FamilyResult, ScanError, SweepError,
};
use h3w_seqdb::fasta::{self, ReadSeqError};
use h3w_seqdb::{DbFormatError, DiskDb, SeqDb};
use h3w_serve::ServeError;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Everything a workspace tool can fail with, so [`guarded_main`] prints
/// each kind uniformly: usage errors echo the usage string, typed
/// pipeline errors print their own diagnostic without it.
#[derive(Debug)]
pub enum ToolError {
    /// Bad invocation or bad input: unknown flags, malformed values,
    /// unreadable files. Printed together with the usage string.
    Usage(String),
    /// A device sweep could not be planned or launched.
    Sweep(SweepError),
    /// Checkpoint state could not be loaded, saved, or reconciled.
    Checkpoint(CheckpointError),
    /// The pipeline configuration was rejected by validation.
    Config(ConfigError),
    /// A packed database file failed to write, load, or validate.
    Db(DbFormatError),
    /// The search daemon failed to start or keep its listener.
    Serve(ServeError),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Usage(msg) => write!(f, "{msg}"),
            ToolError::Sweep(e) => write!(f, "device sweep failed: {e}"),
            // Every checkpoint error names the checkpoint itself.
            ToolError::Checkpoint(e) => write!(f, "{e}"),
            ToolError::Config(e) => write!(f, "bad pipeline configuration: {e}"),
            ToolError::Db(e) => write!(f, "packed database: {e}"),
            ToolError::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl From<String> for ToolError {
    fn from(msg: String) -> Self {
        ToolError::Usage(msg)
    }
}

impl From<&str> for ToolError {
    fn from(msg: &str) -> Self {
        ToolError::Usage(msg.to_string())
    }
}

impl From<SweepError> for ToolError {
    fn from(e: SweepError) -> Self {
        ToolError::Sweep(e)
    }
}

impl From<CheckpointError> for ToolError {
    fn from(e: CheckpointError) -> Self {
        ToolError::Checkpoint(e)
    }
}

impl From<ConfigError> for ToolError {
    fn from(e: ConfigError) -> Self {
        ToolError::Config(e)
    }
}

impl From<DbFormatError> for ToolError {
    fn from(e: DbFormatError) -> Self {
        ToolError::Db(e)
    }
}

impl From<ScanError> for ToolError {
    fn from(e: ScanError) -> Self {
        match e {
            ScanError::Sweep(e) => ToolError::Sweep(e),
            ScanError::Config(e) => ToolError::Config(e),
        }
    }
}

impl From<ServeError> for ToolError {
    fn from(e: ServeError) -> Self {
        ToolError::Serve(e)
    }
}

/// Parsed command line: positionals in order, plus recognized flags.
/// Construction rejects anything not declared up front.
#[derive(Debug)]
pub struct Args {
    positional: Vec<String>,
    bools: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Strict parse: every `-`/`--` token must appear in `bool_flags` or
    /// `value_flags` (which consume the following token as their value).
    /// A lone `-` counts as positional, as does anything after `--`.
    pub fn parse(
        argv: &[String],
        bool_flags: &'static [&'static str],
        value_flags: &'static [&'static str],
    ) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            bools: Vec::new(),
            values: Vec::new(),
        };
        let mut it = argv.iter();
        let mut no_more_flags = false;
        while let Some(tok) = it.next() {
            if no_more_flags || !tok.starts_with('-') || tok == "-" {
                args.positional.push(tok.clone());
            } else if tok == "--" {
                no_more_flags = true;
            } else if let Some(&flag) = bool_flags.iter().find(|&&f| f == tok) {
                if !args.bools.contains(&flag) {
                    args.bools.push(flag);
                }
            } else if let Some(&flag) = value_flags.iter().find(|&&f| f == tok) {
                let Some(value) = it.next() else {
                    return Err(format!("{flag} needs a value"));
                };
                args.values.push((flag, value.clone()));
            } else {
                return Err(format!("unknown flag {tok:?}"));
            }
        }
        Ok(args)
    }

    /// Was this boolean flag given?
    pub fn has(&self, flag: &str) -> bool {
        self.bools.contains(&flag)
    }

    /// Raw value of a value flag (last occurrence wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The `idx`-th positional, or a "missing …" error naming it.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }

    /// Reject extra positional operands beyond `max`.
    pub fn no_extra_positionals(&self, max: usize) -> Result<(), String> {
        match self.positional.get(max) {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(()),
        }
    }

    /// Parse a value flag into `T`, with a diagnostic naming the flag and
    /// echoing the offending text. `Ok(None)` when the flag is absent.
    pub fn parse_value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {flag} value {raw:?}")),
        }
    }
}

/// `value` must be finite and strictly positive (E-value and scale
/// thresholds).
pub fn require_positive_finite(flag: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!(
            "{flag} must be a positive finite number, got {value}"
        ))
    }
}

/// `value` must lie in `[0, 1]` (fractions).
pub fn require_unit_fraction(flag: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!("{flag} must be within [0, 1], got {value}"))
    }
}

/// Read a whole file with a diagnostic that names it.
pub fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Load a target database, sniffing the format from the extension:
/// `.h3wdb` paths load the packed crash-safe format (the one
/// `h3w-pack`/`h3w-serve` use), anything else parses as FASTA. Every
/// search tool accepts both, so a database packed once for the daemon
/// also serves ad-hoc CLI runs.
pub fn load_seqdb(path: &str) -> Result<SeqDb, ToolError> {
    if path.ends_with(".h3wdb") {
        Ok(DiskDb::load(std::path::Path::new(path))?.to_seqdb())
    } else {
        // Streamed through the record reader: the text and the database
        // are never both in memory.
        let reading = |e: std::io::Error| format!("reading {path}: {e}");
        let file = std::fs::File::open(path).map_err(reading)?;
        fasta::read(path, std::io::BufReader::with_capacity(1 << 20, file)).map_err(|e| {
            ToolError::Usage(match e {
                ReadSeqError::Fasta(e) => e.to_string(),
                ReadSeqError::Io(e) => reading(e),
            })
        })
    }
}

/// The `hmmscan` report: the per-family funnel summary, then, per
/// target, the families that hit it (best E-value first, four shown).
pub fn render_scan(results: &[FamilyResult], db: &SeqDb) -> String {
    let mut out = String::from("# per-family summary\n");
    for fr in results {
        let _ = writeln!(
            out,
            "{:<24} M={:<5} msv_pass={:<6} vit_pass={:<5} hits={}",
            fr.family,
            fr.m,
            fr.passed.0,
            fr.passed.1,
            fr.hits.len()
        );
    }
    out.push_str("\n# per-target assignments (best family first)\n");
    let per_target = best_hits_per_target(results);
    if per_target.is_empty() {
        out.push_str("(no hits)\n");
    }
    for (seqid, matches) in per_target {
        let name = &db.seqs[seqid as usize].name;
        let _ = write!(out, "{name:<24}");
        for m in matches.iter().take(4) {
            let _ = write!(out, "  {} (E={:.2e})", m.family, m.evalue);
        }
        if matches.len() > 4 {
            let _ = write!(out, "  +{} more", matches.len() - 4);
        }
        out.push('\n');
    }
    out
}

/// Run a tool body with the shared error contract: `Err` prints
/// `tool: error` and exits 1 (usage errors also echo the usage string;
/// typed pipeline errors — [`ToolError::Sweep`], [`ToolError::Checkpoint`],
/// [`ToolError::Config`] — print their diagnostic alone); an escaped
/// panic prints an internal-error line (no backtrace) and also exits 1.
/// `--help`/`-h` anywhere prints usage and exits 0.
pub fn guarded_main(
    tool: &str,
    usage: &str,
    run: impl FnOnce(&[String]) -> Result<(), ToolError>,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {usage}");
        return ExitCode::SUCCESS;
    }
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&argv)));
    std::panic::set_hook(hook);
    match outcome {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("{tool}: {e}");
            if matches!(e, ToolError::Usage(_)) {
                eprintln!("usage: {usage}");
            }
            ExitCode::FAILURE
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown cause".into());
            eprintln!("{tool}: internal error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(toks: &[&str]) -> Vec<String> {
        toks.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn strict_parse_accepts_declared_flags_only() {
        let a = Args::parse(
            &argv(&["q.hmm", "db.fa", "--max", "-E", "0.5"]),
            &["--max"],
            &["-E"],
        )
        .unwrap();
        assert_eq!(a.positional(0, "query").unwrap(), "q.hmm");
        assert_eq!(a.positional(1, "db").unwrap(), "db.fa");
        assert!(a.has("--max"));
        assert_eq!(a.parse_value::<f64>("-E").unwrap(), Some(0.5));
        assert!(a.no_extra_positionals(2).is_ok());
        assert!(a.no_extra_positionals(1).is_err());

        let err = Args::parse(&argv(&["--bogus"]), &["--max"], &["-E"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = Args::parse(&argv(&["-E"]), &[], &["-E"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn double_dash_ends_flag_parsing() {
        let a = Args::parse(&argv(&["--", "--not-a-flag"]), &[], &[]).unwrap();
        assert_eq!(a.positional(0, "x").unwrap(), "--not-a-flag");
    }

    #[test]
    fn bad_values_name_the_flag() {
        let a = Args::parse(&argv(&["-E", "ten"]), &[], &["-E"]).unwrap();
        let err = a.parse_value::<f64>("-E").unwrap_err();
        assert!(err.contains("-E") && err.contains("ten"), "{err}");
    }

    #[test]
    fn tool_errors_convert_and_render() {
        let e: ToolError = "missing query".to_string().into();
        assert!(matches!(e, ToolError::Usage(_)));
        assert_eq!(e.to_string(), "missing query");
        let e: ToolError = ConfigError::ReportEvalue { value: -1.0 }.into();
        assert!(matches!(e, ToolError::Config(_)));
        assert!(e.to_string().contains("configuration"));
        let e: ToolError = CheckpointError::Mismatch("chunking changed".into()).into();
        assert!(e.to_string().contains("checkpoint"));
        assert!(e.to_string().contains("chunking changed"));
        let e: ToolError = DbFormatError::BadMagic.into();
        assert!(matches!(e, ToolError::Db(_)));
        assert!(e.to_string().contains("packed database"));
        let e: ToolError = ServeError::Config("workers must be >= 1".into()).into();
        assert!(matches!(e, ToolError::Serve(_)));
        assert!(e.to_string().contains("serve"));
        assert!(e.to_string().contains("workers"));
    }

    #[test]
    fn load_seqdb_streams_fasta_and_keeps_its_diagnostics() {
        let dir = std::env::temp_dir().join(format!("h3w-cli-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str, bytes: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            path.display().to_string()
        };
        let good = at("good.fa", b">a first\nMKVL\nay\n>b\nWQ\n");
        let db = load_seqdb(&good).unwrap();
        assert_eq!(db.name, good);
        assert_eq!(
            db.seqs,
            fasta::parse(&good, ">a first\nMKVLAY\n>b\nWQ\n")
                .unwrap()
                .seqs
        );

        let usage = |path: &str| match load_seqdb(path) {
            Err(ToolError::Usage(msg)) => msg,
            other => panic!("{path}: unexpected {other:?}"),
        };
        assert_eq!(
            usage(&at("bad.fa", b">a\nMK1L\n")),
            "line 2: invalid residue '1'"
        );
        let binary = at("binary.fa", b">a\nMK\xffL\n");
        assert_eq!(
            usage(&binary),
            format!("reading {binary}: stream did not contain valid UTF-8")
        );
        let missing = dir.join("missing.fa").display().to_string();
        let msg = usage(&missing);
        assert!(msg.starts_with(&format!("reading {missing}: ")), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn numeric_guards() {
        assert!(require_positive_finite("-E", 1.5).is_ok());
        assert!(require_positive_finite("-E", 0.0).is_err());
        assert!(require_positive_finite("-E", f64::NAN).is_err());
        assert!(require_positive_finite("-E", f64::INFINITY).is_err());
        assert!(require_unit_fraction("--hom", 0.0).is_ok());
        assert!(require_unit_fraction("--hom", 1.0).is_ok());
        assert!(require_unit_fraction("--hom", 1.1).is_err());
        assert!(require_unit_fraction("--hom", f64::NAN).is_err());
    }
}
