//! Checkpoint/resume state for chunked streaming sweeps.
//!
//! A long Env_nr-scale sweep (§IV-A) should not restart from zero when
//! the process dies. [`StreamCheckpoint`] holds what a chunked sweep has
//! accumulated — the chunk cursor, per-stage funnel counters and the
//! survivor hits — and is saved atomically (tmp + rename) after every
//! chunk as a counted line record, each line ended by `\n`:
//!
//! ```text
//! h3w-checkpoint 3
//! chunks_done <n>
//! seq_base <n>
//! total_seqs <n>
//! db_hash <16 hex>
//! stage <seqs_in> <seqs_out> <residues_in> <time_s>        × 3
//! hits <n>
//! hit <seqid> <msv> <vit> <fwd> <pvalue> <evalue> <name>   × n
//! ```
//!
//! Floats are the lowercase hex of their IEEE-754 bits (`f32` 8 digits,
//! `f64` 16), so a resumed sweep is bit-exact; integers are plain
//! decimals; the name takes the rest of its line, with `\` and newline
//! escaped (`\\`, `\n`). Stages carry no names: the sweep's plan supplies
//! them ([`ExecPlan::stage_labels`](crate::run::ExecPlan::stage_labels)).
//! The reader accepts exactly what the writer emits, so a cut file (at a
//! line boundary too: the `hits` count and the final newline catch it)
//! is a typed [`CheckpointError`], never a checkpoint with fewer hits.

use crate::report::{Hit, StageStats};
use std::fmt::Write as _;
use std::path::Path;

/// Current checkpoint format version. Version 3 is the counted line
/// record; the JSON files of versions 1 and 2 are refused.
pub const CHECKPOINT_VERSION: u64 = 3;

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (path and OS diagnostic).
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        msg: String,
    },
    /// The file is not a checkpoint this version understands.
    Parse(String),
    /// The checkpoint was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u64,
    },
    /// The checkpoint belongs to a different sweep (database size or
    /// chunking changed under it).
    Mismatch(String),
    /// The checkpoint was written against a different database: its
    /// recorded content hash does not match the database being swept.
    DatabaseDrift {
        /// Content hash recorded in the checkpoint.
        expected: u64,
        /// Content hash of the database offered for resume.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, msg } => write!(f, "checkpoint {path}: {msg}"),
            CheckpointError::Parse(msg) => write!(f, "checkpoint parse error: {msg}"),
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::DatabaseDrift { expected, found } => write!(
                f,
                "checkpoint was written against a different database \
                 (content hash {expected:016x}, this database hashes to {found:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Everything a chunked sweep has accumulated, sufficient to resume
/// after the last fully-processed chunk.
///
/// Posterior decodings are **not** persisted — they are a null2-path
/// cache, and domain reporting recomputes them on demand — so resumed
/// hits always carry `posterior: None`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Chunks fully processed (the resume cursor).
    pub chunks_done: usize,
    /// Sequences consumed by those chunks (global seqid base).
    pub seq_base: u32,
    /// E-value scale of the sweep (whole-database size); a resume with a
    /// different value is a different sweep and is rejected.
    pub total_seqs: usize,
    /// Content hash of the swept database ([`h3w_seqdb::content_hash`]);
    /// a resume against a database with a different hash is rejected
    /// with [`CheckpointError::DatabaseDrift`].
    pub db_hash: u64,
    /// Accumulated funnel counters (MSV, P7Viterbi, Forward), named by
    /// the labels the checkpoint was made or read with.
    pub stages: [StageStats; 3],
    /// Survivor hits so far (global seqids, E-values already on the
    /// whole-database scale).
    pub hits: Vec<Hit>,
}

impl StreamCheckpoint {
    /// A fresh sweep over `total_seqs` sequences of the database hashing
    /// to `db_hash`, its stages named `labels`: nothing done yet.
    pub fn fresh(total_seqs: usize, db_hash: u64, labels: [&str; 3]) -> StreamCheckpoint {
        StreamCheckpoint {
            chunks_done: 0,
            seq_base: 0,
            total_seqs,
            db_hash,
            stages: labels.map(|name| StageStats::new(name, 0, 0, 0.0)),
            hits: Vec::new(),
        }
    }

    /// Serialize to the line record (see the module doc).
    pub fn to_text(&self) -> String {
        let mut s = format!("h3w-checkpoint {CHECKPOINT_VERSION}\n");
        let _ = writeln!(s, "chunks_done {}", self.chunks_done);
        let _ = writeln!(s, "seq_base {}", self.seq_base);
        let _ = writeln!(s, "total_seqs {}", self.total_seqs);
        let _ = writeln!(s, "db_hash {:016x}", self.db_hash);
        for st in &self.stages {
            let time = st.time_s.to_bits();
            let (seqs_in, seqs_out, residues_in) = (st.seqs_in, st.seqs_out, st.residues_in);
            let _ = writeln!(s, "stage {seqs_in} {seqs_out} {residues_in} {time:016x}");
        }
        let _ = writeln!(s, "hits {}", self.hits.len());
        for h in &self.hits {
            let [msv, vit, fwd] = [h.msv_score, h.vit_score, h.fwd_score].map(f32::to_bits);
            let [pvalue, evalue] = [h.pvalue, h.evalue].map(f64::to_bits);
            let _ = write!(s, "hit {} {msv:08x} {vit:08x} {fwd:08x} ", h.seqid);
            let _ = write!(s, "{pvalue:016x} {evalue:016x} ");
            for c in h.name.chars() {
                match c {
                    '\\' => s.push_str("\\\\"),
                    '\n' => s.push_str("\\n"),
                    c => s.push(c),
                }
            }
            s.push('\n');
        }
        s
    }

    /// Read the line record [`StreamCheckpoint::to_text`] writes, naming
    /// the stages `labels`. Anything but the writer's exact output is a
    /// typed error: a version other than [`CHECKPOINT_VERSION`] is
    /// [`CheckpointError::Version`], the rest [`CheckpointError::Parse`]
    /// naming the line.
    pub fn from_text(text: &str, labels: [&str; 3]) -> Result<StreamCheckpoint, CheckpointError> {
        let body = text
            .strip_suffix('\n')
            .ok_or_else(|| CheckpointError::Parse("no final newline".into()))?;
        let mut r = Lines {
            lines: body.split('\n'),
            at: 0,
        };
        let found = r.dec_line("h3w-checkpoint")?;
        if found != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found });
        }
        let mut ck = StreamCheckpoint::fresh(0, 0, labels);
        ck.chunks_done = r.dec_line("chunks_done")?;
        ck.seq_base = r.dec_line("seq_base")?;
        ck.total_seqs = r.dec_line("total_seqs")?;
        ck.db_hash = r.next("db_hash").and_then(|[hash]| r.hex(hash, 16))?;
        for st in &mut ck.stages {
            let [seqs_in, seqs_out, residues_in, time_s] = r.next("stage")?;
            st.seqs_in = r.dec(seqs_in)?;
            st.seqs_out = r.dec(seqs_out)?;
            st.residues_in = r.dec(residues_in)?;
            st.time_s = f64::from_bits(r.hex(time_s, 16)?);
        }
        let n: usize = r.dec_line("hits")?;
        for _ in 0..n {
            let [seqid, msv, vit, fwd, pvalue, evalue, name] = r.next("hit")?;
            let score = |s| r.hex(s, 8).map(|bits| f32::from_bits(bits as u32));
            ck.hits.push(Hit {
                seqid: r.dec(seqid)?,
                name: r.unescape(name)?,
                msv_score: score(msv)?,
                vit_score: score(vit)?,
                fwd_score: score(fwd)?,
                pvalue: f64::from_bits(r.hex(pvalue, 16)?),
                evalue: f64::from_bits(r.hex(evalue, 16)?),
                posterior: None,
            });
        }
        if r.lines.next().is_some() {
            r.at += 1;
            return Err(r.err(format!("data after the last of {n} hits")));
        }
        Ok(ck)
    }

    /// Write atomically: serialize to `<path>.tmp` (the whole file name
    /// with `.tmp` appended, so no two checkpoints share one), then
    /// rename over `path`, so a crash mid-write never leaves a torn
    /// checkpoint. A failed write or rename removes the temporary.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, self.to_text())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                io_error(path, e)
            })
    }

    /// Load a checkpoint previously written by [`StreamCheckpoint::save`],
    /// naming its stages `labels`.
    pub fn load(path: &Path, labels: [&str; 3]) -> Result<StreamCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
        StreamCheckpoint::from_text(&text, labels)
    }
}

fn io_error(path: &Path, e: std::io::Error) -> CheckpointError {
    let (path, msg) = (path.display().to_string(), e.to_string());
    CheckpointError::Io { path, msg }
}

/// The record's lines, read in order; an error names its line.
struct Lines<'a> {
    lines: std::str::Split<'a, char>,
    at: usize,
}

impl<'a> Lines<'a> {
    /// The next line: `key`, then `N` fields, each after one space (the
    /// last takes the rest of the line).
    fn next<const N: usize>(&mut self, key: &str) -> Result<[&'a str; N], CheckpointError> {
        self.at += 1;
        let line = self.lines.next().unwrap_or_default();
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|rest| rest.splitn(N, ' ').collect::<Vec<_>>().try_into().ok())
            .ok_or_else(|| self.err(format!("expected `{key}` and {N} field(s)")))
    }

    /// The next line, `key` and one decimal.
    fn dec_line<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, CheckpointError> {
        let [v] = self.next(key)?;
        self.dec(v)
    }

    /// A decimal that prints back as `s`: digits only, no leading zero.
    fn dec<T: TryFrom<u64>>(&self, s: &str) -> Result<T, CheckpointError> {
        let v = s.parse::<u64>().ok().filter(|v| v.to_string() == s);
        v.and_then(|v| T::try_from(v).ok())
            .ok_or_else(|| self.err(format!("bad integer {s:?}")))
    }

    /// Exactly `width` lowercase hex digits: a hash or a float's bits.
    fn hex(&self, s: &str, width: usize) -> Result<u64, CheckpointError> {
        let v = u64::from_str_radix(s, 16).ok();
        v.filter(|v| format!("{v:0width$x}") == s)
            .ok_or_else(|| self.err(format!("bad {width}-digit hex {s:?}")))
    }

    /// A name with its `\\` and `\n` escapes undone; any other is an error.
    fn unescape(&self, s: &str) -> Result<String, CheckpointError> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => match chars.next() {
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    _ => return Err(self.err("bad escape in name")),
                },
                c => c,
            });
        }
        Ok(out)
    }

    fn err(&self, msg: impl std::fmt::Display) -> CheckpointError {
        CheckpointError::Parse(format!("line {}: {msg}", self.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: [&str; 3] = ["MSV", "P7Viterbi", "Forward"];

    fn sample() -> StreamCheckpoint {
        let mut ck = StreamCheckpoint::fresh(5000, 0xdead_beef_cafe_f00d, LABELS);
        ck.chunks_done = 3;
        ck.seq_base = 1234;
        ck.stages[0].seqs_in = 1234;
        ck.stages[0].seqs_out = 27;
        ck.stages[0].residues_in = 250_000;
        ck.stages[0].time_s = 0.125;
        ck.hits.push(Hit {
            seqid: 17,
            name: "hom4 \"quoted\" \\slash\nline\u{7} \u{e9}\u{4e2d}".into(),
            msv_score: 12.75,
            vit_score: f32::NEG_INFINITY,
            fwd_score: 31.5,
            pvalue: 2.5e-31,
            evalue: 1.25e-27,
            posterior: None,
        });
        ck.hits.push(Hit {
            seqid: 0,
            name: String::new(),
            msv_score: -0.0,
            vit_score: 1.0,
            fwd_score: 2.0,
            pvalue: 1.0,
            evalue: 5000.0,
            posterior: None,
        });
        ck
    }

    fn read(text: &str) -> Result<StreamCheckpoint, CheckpointError> {
        StreamCheckpoint::from_text(text, LABELS)
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let ck = sample();
        let text = ck.to_text();
        let back = read(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_text(), text);
        // Float identity down to the bits, including the -inf sentinel
        // and the sign of zero.
        assert_eq!(
            back.hits[0].vit_score.to_bits(),
            f32::NEG_INFINITY.to_bits()
        );
        assert_eq!(back.hits[0].pvalue.to_bits(), 2.5e-31f64.to_bits());
        assert_eq!(back.hits[1].msv_score.to_bits(), (-0.0f32).to_bits());
        // The record reads as the module doc lays it out.
        let head = "h3w-checkpoint 3\nchunks_done 3\nseq_base 1234\ntotal_seqs 5000\n\
                    db_hash deadbeefcafef00d\nstage 1234 27 250000 3fc0000000000000\n";
        assert!(text.starts_with(head), "{text}");
        let hit = "\nhits 2\nhit 17 414c0000 ff800000 41fc0000 ";
        assert!(text.contains(hit), "{text}");
        assert!(text.contains(" hom4 \"quoted\" \\\\slash\\nline\u{7} \u{e9}\u{4e2d}\n"));
        assert!(text.ends_with(" \n"), "the empty name ends its line");
    }

    /// Every cut and every tested byte substitution of a sample record
    /// is a typed error or reads back to exactly its own text.
    #[test]
    fn the_reader_accepts_exactly_what_the_writer_writes() {
        let text = sample().to_text();
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            // A cut inside a multi-byte character is no text at all.
            if let Ok(prefix) = std::str::from_utf8(&bytes[..cut]) {
                assert!(read(prefix).is_err(), "accepted the first {cut} bytes");
            }
        }
        let mut accepted = 0;
        for at in 0..bytes.len() {
            for b in *b"09aA- \n\\x" {
                let mut mutant = bytes.to_vec();
                mutant[at] = b;
                let Ok(mutant) = std::str::from_utf8(&mutant) else {
                    continue;
                };
                if let Ok(ck) = read(mutant) {
                    assert_eq!(ck.to_text(), mutant, "byte {at} as {:?}", b as char);
                    accepted += 1;
                }
            }
        }
        // Digits in decimals, hex digits and name bytes may change and
        // still be a record; most substitutions are not.
        assert!(accepted > 0);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("h3w-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(StreamCheckpoint::load(&path, LABELS).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_save_leaves_no_temporary() {
        let dir = std::env::temp_dir().join(format!("h3w-ckpt-fail-{}", std::process::id()));
        // The target is an existing directory: the temporary is written,
        // the rename over the directory fails.
        let path = dir.join("run.a");
        std::fs::create_dir_all(&path).unwrap();
        let err = sample().save(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, ["run.a"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_not_panicked() {
        let good = sample().to_text();
        let v2 = "{\"version\":2,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\
                  \"db_hash\":\"0\",\"stages\":[],\"hits\":[]}";
        let bad = [
            String::new(),
            "\n".into(),
            "not a checkpoint\n".into(),
            v2.into(),
            format!("{v2}\n"),
            good[..good.len() - 1].into(),
            format!("{good}\n"),
            good.replace('\n', "\r\n"),
            good.replace("hits 2", "hits 1"),
            good.replace("hits 2", "hits 3"),
            good.replace("chunks_done 3", "chunks_done 03"),
            good.replace("chunks_done 3", "chunks_done +3"),
            good.replace("chunks_done 3", "chunks_done  3"),
            good.replace("seq_base 1234", "seq_base 4294967296"),
            good.replace("deadbeefcafef00d", "DEADBEEFCAFEF00D"),
            good.replace("deadbeefcafef00d", "deadbeef"),
            good.replace("stage 1234 27 250000", "stage 1234 27"),
            good.replace("414c0000", "414c000"),
            good.replace("\\\\slash", "\\slash"),
            good.replace("\\nline", "\\"),
        ];
        for text in &bad {
            assert!(
                matches!(read(text), Err(CheckpointError::Parse(_))),
                "accepted {text:?}"
            );
        }
        assert!(matches!(
            read("h3w-checkpoint 99\n"),
            Err(CheckpointError::Version { found: 99 })
        ));
        assert!(matches!(
            read(&good.replace("h3w-checkpoint 3", "h3w-checkpoint 2")),
            Err(CheckpointError::Version { found: 2 })
        ));
        let err = read(&good.replace("hits 2", "hits 3")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint parse error: line 12: expected `hit` and 7 field(s)"
        );
        let err = read(&good.replace("hits 2", "hits 1")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint parse error: line 11: data after the last of 1 hits"
        );
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = StreamCheckpoint::load(Path::new("/nonexistent/sweep.ckpt"), LABELS).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
    }
}
