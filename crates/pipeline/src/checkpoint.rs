//! Checkpoint/resume state for chunked streaming sweeps.
//!
//! A long Env_nr-scale sweep (§IV-A) should not restart from zero when
//! the process dies. [`StreamCheckpoint`] captures everything a chunked
//! sweep has accumulated — the chunk cursor, per-stage funnel counters,
//! and the survivor hits — as a small JSON file written atomically
//! (tmp + rename) after every chunk.
//!
//! The repo vendors no serde, so the format is hand-rolled: a strict
//! subset of JSON (objects, arrays, strings, unsigned integers) with
//! every float stored as the **hex encoding of its IEEE-754 bits**
//! (`f32` → 8 hex digits, `f64` → 16). That keeps resume bit-exact: a
//! killed-then-resumed sweep reports byte-identical scores and E-values
//! to an uninterrupted one, with no decimal round-trip drift.

use crate::report::{Hit, StageStats};
use h3w_trace::json_string;
use std::fmt::Write as _;
use std::path::Path;

/// Current checkpoint format version. Version 2 added `db_hash`, the
/// content hash of the swept database — resume against a different
/// database is rejected instead of silently merging wrong hits.
pub const CHECKPOINT_VERSION: u64 = 2;

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
            CheckpointError::Version { found } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
                )
            }
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
    /// Accumulated funnel counters (MSV, P7Viterbi, Forward).
    pub stages: [StageStats; 3],
    /// Survivor hits so far (global seqids, E-values already on the
    /// whole-database scale).
    pub hits: Vec<Hit>,
}

impl StreamCheckpoint {
    /// A fresh sweep over `total_seqs` sequences of the database hashing
    /// to `db_hash`: nothing done yet.
    pub fn fresh(total_seqs: usize, db_hash: u64) -> StreamCheckpoint {
        StreamCheckpoint {
            chunks_done: 0,
            seq_base: 0,
            total_seqs,
            db_hash,
            stages: [
                StageStats::new("MSV", 0, 0, 0.0),
                StageStats::new("P7Viterbi", 0, 0, 0.0),
                StageStats::new("Forward", 0, 0, 0.0),
            ],
            hits: Vec::new(),
        }
    }

    /// Serialize to the checkpoint JSON format.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.hits.len() * 160);
        s.push('{');
        let _ = write!(s, "\"version\":{CHECKPOINT_VERSION}");
        let _ = write!(s, ",\"chunks_done\":{}", self.chunks_done);
        let _ = write!(s, ",\"seq_base\":{}", self.seq_base);
        let _ = write!(s, ",\"total_seqs\":{}", self.total_seqs);
        let _ = write!(s, ",\"db_hash\":\"{:016x}\"", self.db_hash);
        s.push_str(",\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{},\"seqs_in\":{},\"seqs_out\":{},\"residues_in\":{},\"time_s\":{}}}",
                json_string(&st.name),
                st.seqs_in,
                st.seqs_out,
                st.residues_in,
                hex_f64(st.time_s),
            );
        }
        s.push_str("],\"hits\":[");
        for (i, h) in self.hits.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"seqid\":{},\"name\":{},\"msv\":{},\"vit\":{},\"fwd\":{},\"pvalue\":{},\"evalue\":{}}}",
                h.seqid,
                json_string(&h.name),
                hex_f32(h.msv_score),
                hex_f32(h.vit_score),
                hex_f32(h.fwd_score),
                hex_f64(h.pvalue),
                hex_f64(h.evalue),
            );
        }
        s.push_str("]}");
        s
    }

    /// Parse the checkpoint JSON format.
    pub fn from_json(text: &str) -> Result<StreamCheckpoint, CheckpointError> {
        let value = Parser::new(text).parse_document()?;
        let obj = value.as_object("checkpoint")?;
        let version = get(obj, "version")?.as_u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        let mut stages = Vec::with_capacity(3);
        for v in get(obj, "stages")?.as_array("stages")? {
            let st = v.as_object("stage")?;
            stages.push(StageStats {
                name: get(st, "name")?.as_str("name")?.to_string(),
                seqs_in: get(st, "seqs_in")?.as_u64("seqs_in")? as usize,
                seqs_out: get(st, "seqs_out")?.as_u64("seqs_out")? as usize,
                residues_in: get(st, "residues_in")?.as_u64("residues_in")?,
                time_s: get(st, "time_s")?.as_hex_f64("time_s")?,
            });
        }
        let mut hits = Vec::new();
        for v in get(obj, "hits")?.as_array("hits")? {
            let h = v.as_object("hit")?;
            hits.push(Hit {
                seqid: get(h, "seqid")?.as_u64("seqid")? as u32,
                name: get(h, "name")?.as_str("name")?.to_string(),
                msv_score: get(h, "msv")?.as_hex_f32("msv")?,
                vit_score: get(h, "vit")?.as_hex_f32("vit")?,
                fwd_score: get(h, "fwd")?.as_hex_f32("fwd")?,
                pvalue: get(h, "pvalue")?.as_hex_f64("pvalue")?,
                evalue: get(h, "evalue")?.as_hex_f64("evalue")?,
                posterior: None,
            });
        }
        let stages: [StageStats; 3] = stages.try_into().map_err(|v: Vec<_>| {
            CheckpointError::Parse(format!("expected 3 stages, found {}", v.len()))
        })?;
        Ok(StreamCheckpoint {
            chunks_done: get(obj, "chunks_done")?.as_u64("chunks_done")? as usize,
            seq_base: get(obj, "seq_base")?.as_u64("seq_base")? as u32,
            total_seqs: get(obj, "total_seqs")?.as_u64("total_seqs")? as usize,
            db_hash: get(obj, "db_hash")?.as_hex_u64("db_hash")?,
            stages,
            hits,
        })
    }

    /// Write atomically: serialize to `<path>.tmp`, then rename over
    /// `path`, so a crash mid-write never leaves a torn checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_json()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Load a checkpoint previously written by [`StreamCheckpoint::save`].
    pub fn load(path: &Path) -> Result<StreamCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        StreamCheckpoint::from_json(&text)
    }
}

fn hex_f32(v: f32) -> String {
    format!("\"{:08x}\"", v.to_bits())
}

fn hex_f64(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

/// The strict JSON subset the writer above emits.
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(u64),
}

impl Json {
    fn as_object(&self, what: &str) -> Result<&[(String, Json)], CheckpointError> {
        match self {
            Json::Object(o) => Ok(o),
            _ => Err(CheckpointError::Parse(format!("{what}: expected object"))),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], CheckpointError> {
        match self {
            Json::Array(a) => Ok(a),
            _ => Err(CheckpointError::Parse(format!("{what}: expected array"))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, CheckpointError> {
        match self {
            Json::String(s) => Ok(s),
            _ => Err(CheckpointError::Parse(format!("{what}: expected string"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, CheckpointError> {
        match self {
            Json::Number(n) => Ok(*n),
            _ => Err(CheckpointError::Parse(format!("{what}: expected integer"))),
        }
    }

    fn as_hex_f32(&self, what: &str) -> Result<f32, CheckpointError> {
        let s = self.as_str(what)?;
        let bits = u32::from_str_radix(s, 16)
            .map_err(|_| CheckpointError::Parse(format!("{what}: bad f32 bits {s:?}")))?;
        Ok(f32::from_bits(bits))
    }

    fn as_hex_f64(&self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.as_hex_u64(what)?))
    }

    fn as_hex_u64(&self, what: &str) -> Result<u64, CheckpointError> {
        let s = self.as_str(what)?;
        u64::from_str_radix(s, 16)
            .map_err(|_| CheckpointError::Parse(format!("{what}: bad hex u64 {s:?}")))
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, CheckpointError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| CheckpointError::Parse(format!("missing key {key:?}")))
}

/// Recursive-descent parser over the subset.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> CheckpointError {
        CheckpointError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn parse_document(&mut self) -> Result<Json, CheckpointError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), CheckpointError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, CheckpointError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, CheckpointError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            let key = self.parse_string()?;
            self.eat(b':')?;
            entries.push((key, self.parse_value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, CheckpointError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, CheckpointError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through whole; the input was
                    // a &str, so slicing at char boundaries is safe here.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&c| c != b'"' && c != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, CheckpointError> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|digits| digits.parse::<u64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.err("integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamCheckpoint {
        let mut ck = StreamCheckpoint::fresh(5000, 0xdead_beef_cafe_f00d);
        ck.chunks_done = 3;
        ck.seq_base = 1234;
        ck.stages[0].seqs_in = 1234;
        ck.stages[0].seqs_out = 27;
        ck.stages[0].residues_in = 250_000;
        ck.stages[0].time_s = 0.125;
        ck.hits.push(Hit {
            seqid: 17,
            name: "hom4 \"quoted\" \\slash\u{7}".into(),
            msv_score: 12.75,
            vit_score: f32::NEG_INFINITY,
            fwd_score: 31.5,
            pvalue: 2.5e-31,
            evalue: 1.25e-27,
            posterior: None,
        });
        ck
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let ck = sample();
        let back = StreamCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(back, ck);
        // Float identity down to the bits, including the -inf sentinel.
        assert_eq!(
            back.hits[0].vit_score.to_bits(),
            f32::NEG_INFINITY.to_bits()
        );
        assert_eq!(back.hits[0].pvalue.to_bits(), 2.5e-31f64.to_bits());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("h3w-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(StreamCheckpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"version\":2}",
            "{\"version\":99,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"db_hash\":\"0\",\"stages\":[],\"hits\":[]}",
            "{\"version\":2,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"db_hash\":\"0\",\"stages\":[],\"hits\":[]}",
            // Version-1 files (no db_hash) are rejected, typed.
            "{\"version\":1,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"stages\":[],\"hits\":[]}",
            "{\"version\":2,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"db_hash\":\"zz\",\"stages\":[],\"hits\":[]}",
            "{\"version\":2,\"chunks_done\":0} trailing",
        ] {
            assert!(StreamCheckpoint::from_json(bad).is_err(), "accepted {bad:?}");
        }
        let no_stages = "{\"version\":2,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"db_hash\":\"0\",\"stages\":[],\"hits\":[]}";
        let err = StreamCheckpoint::from_json(no_stages).unwrap_err();
        assert!(
            err.to_string().contains("expected 3 stages, found 0"),
            "{err}"
        );
        assert!(matches!(
            StreamCheckpoint::from_json(
                "{\"version\":99,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"db_hash\":\"0\",\"stages\":[],\"hits\":[]}"
            ),
            Err(CheckpointError::Version { found: 99 })
        ));
        assert!(matches!(
            StreamCheckpoint::from_json(
                "{\"version\":1,\"chunks_done\":0,\"seq_base\":0,\"total_seqs\":1,\"stages\":[],\"hits\":[]}"
            ),
            Err(CheckpointError::Version { found: 1 })
        ));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = StreamCheckpoint::load(Path::new("/nonexistent/sweep.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
    }
}
