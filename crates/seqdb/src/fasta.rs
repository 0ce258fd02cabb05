//! Minimal FASTA reader/writer for protein sequences.
//!
//! Supports the subset of the FASTA grammar the search tools need: `>`
//! header lines (id + optional description), wrapped sequence lines,
//! blank lines ignored, `;` comment lines ignored.

use crate::seq::{DigitalSeq, SeqDb};
use h3w_hmm::alphabet::{
    digitize, digitize_bytes_into, is_gap, BYTE_CLASS, BYTE_CODE_MASK, BYTE_SPACE, CODE_BYTE,
};
use std::io::BufRead;

/// FASTA parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastaError {
    /// Sequence data appeared before any `>` header.
    DataBeforeHeader { line: usize },
    /// A residue character was not in the alphabet (or was a gap symbol).
    BadResidue { line: usize, ch: char },
    /// A header introduced a record that ended with no residues.
    EmptyRecord { name: String },
}

impl std::fmt::Display for FastaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastaError::DataBeforeHeader { line } => {
                write!(f, "line {line}: sequence data before first '>' header")
            }
            FastaError::BadResidue { line, ch } => {
                write!(f, "line {line}: invalid residue {ch:?}")
            }
            FastaError::EmptyRecord { name } => write!(f, "record {name:?} has no residues"),
        }
    }
}

impl std::error::Error for FastaError {}

/// Why a streaming FASTA read stopped: grammar violation or I/O failure
/// from the underlying reader (the latter can't happen for in-memory
/// text).
#[derive(Debug)]
pub enum ReadSeqError {
    /// FASTA grammar violation.
    Fasta(FastaError),
    /// The underlying reader failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ReadSeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadSeqError::Fasta(e) => e.fmt(f),
            ReadSeqError::Io(e) => write!(f, "fasta read: {e}"),
        }
    }
}

impl std::error::Error for ReadSeqError {}

impl From<FastaError> for ReadSeqError {
    fn from(e: FastaError) -> ReadSeqError {
        ReadSeqError::Fasta(e)
    }
}

/// Streaming FASTA record reader: yields one [`DigitalSeq`] at a time
/// from any [`BufRead`], holding only the record in flight. [`parse`]
/// is this reader collected into a [`SeqDb`]; file-backed sources
/// ([`crate::source::FastaFileSource`]) use it to scan gigabyte FASTA
/// files in constant memory.
///
/// Lines are read as bytes. A residue line goes through
/// [`digitize_bytes_into`] in one pass; only a line holding anything but
/// plain residue letters (whitespace, a gap, a foreign or non-ASCII byte)
/// is re-read as text by `residue_line_as_text`, which is where every
/// residue-line diagnostic comes from. Header and comment lines are
/// validated as UTF-8, so invalid UTF-8 anywhere in the input is the
/// `InvalidData` I/O error that `BufRead::read_line` raises for it.
pub struct SeqReader<R: BufRead> {
    reader: R,
    lineno: usize,
    buf: Vec<u8>,
    /// Header of the next record, consumed while closing the previous one.
    next_name: String,
    next_desc: String,
    header_pending: bool,
    failed: bool,
    /// The iterator's record buffer: every record is decoded into this one
    /// allocation and handed out as an exact-capacity copy, so a kept
    /// record never carries the slack of a `Vec` grown line by line.
    scratch: DigitalSeq,
}

impl<R: BufRead> SeqReader<R> {
    /// Wrap a buffered reader positioned at the start of FASTA text.
    pub fn new(reader: R) -> SeqReader<R> {
        SeqReader {
            reader,
            lineno: 0,
            buf: Vec::new(),
            next_name: String::new(),
            next_desc: String::new(),
            header_pending: false,
            failed: false,
            scratch: DigitalSeq::default(),
        }
    }

    /// Read the next record into `rec`, reusing its buffers. `Ok(false)`
    /// at end of input (`rec` is then empty); after an `Err` the reader is
    /// spent and keeps returning `Ok(false)`.
    pub(crate) fn read_record(&mut self, rec: &mut DigitalSeq) -> Result<bool, ReadSeqError> {
        rec.name.clear();
        rec.desc.clear();
        rec.residues.clear();
        if self.failed {
            return Ok(false);
        }
        self.step(rec).inspect_err(|_| self.failed = true)
    }

    fn step(&mut self, rec: &mut DigitalSeq) -> Result<bool, ReadSeqError> {
        let mut open = std::mem::take(&mut self.header_pending);
        if open {
            std::mem::swap(&mut rec.name, &mut self.next_name);
            std::mem::swap(&mut rec.desc, &mut self.next_desc);
        }
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.buf)
                .map_err(ReadSeqError::Io)?;
            if n == 0 {
                break; // EOF: flush the record in flight, if any.
            }
            self.lineno += 1;
            let end = self
                .buf
                .iter()
                .rposition(|&b| BYTE_CLASS[b as usize] != BYTE_SPACE)
                .map_or(0, |i| i + 1);
            match self.buf[..end].first() {
                None => {}
                Some(b';') => {
                    as_utf8(&self.buf)?;
                }
                Some(b'>') => {
                    let header = &as_utf8(&self.buf)?.trim_end()[1..];
                    let mut parts = header.splitn(2, char::is_whitespace);
                    let (name, desc) = if open {
                        (&mut self.next_name, &mut self.next_desc)
                    } else {
                        (&mut rec.name, &mut rec.desc)
                    };
                    name.clear();
                    name.push_str(parts.next().unwrap_or(""));
                    desc.clear();
                    desc.push_str(parts.next().unwrap_or("").trim());
                    if open {
                        self.header_pending = true;
                        break;
                    }
                    open = true;
                }
                Some(_) if open => {
                    let start = rec.residues.len();
                    let seen = digitize_bytes_into(&self.buf[..end], &mut rec.residues);
                    if seen & !BYTE_CODE_MASK != 0 {
                        rec.residues.truncate(start);
                        residue_line_as_text(&self.buf, self.lineno, Some(&mut rec.residues))?;
                    }
                }
                Some(_) => residue_line_as_text(&self.buf, self.lineno, None)?,
            }
        }
        if open && rec.residues.is_empty() {
            return Err(FastaError::EmptyRecord {
                name: std::mem::take(&mut rec.name),
            }
            .into());
        }
        Ok(open)
    }
}

impl<R: BufRead> Iterator for SeqReader<R> {
    type Item = Result<DigitalSeq, ReadSeqError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut rec = std::mem::take(&mut self.scratch);
        let item = match self.read_record(&mut rec) {
            // `clone` allocates `len` bytes per field, and none for an
            // empty description.
            Ok(true) => Some(Ok(rec.clone())),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        };
        self.scratch = rec;
        item
    }
}

/// The line as text, or the error `BufRead::read_line` gives for it.
fn as_utf8(line: &[u8]) -> Result<&str, ReadSeqError> {
    std::str::from_utf8(line).map_err(|_| {
        ReadSeqError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// The `char`-wise reading of one line that is neither header nor comment
/// and that the byte table could not take whole: skips Unicode whitespace
/// and names the first offending character. `residues` is the record in
/// flight, `None` before the first header.
#[cold]
fn residue_line_as_text(
    raw: &[u8],
    lineno: usize,
    residues: Option<&mut Vec<u8>>,
) -> Result<(), ReadSeqError> {
    let line = as_utf8(raw)?.trim_end();
    if line.is_empty() {
        return Ok(()); // nothing but (Unicode) whitespace
    }
    let residues = residues.ok_or(FastaError::DataBeforeHeader { line: lineno })?;
    for ch in line.chars() {
        if ch.is_whitespace() {
            continue;
        }
        let code = digitize(ch).map_err(|_| FastaError::BadResidue { line: lineno, ch })?;
        if is_gap(code) {
            return Err(FastaError::BadResidue { line: lineno, ch }.into());
        }
        residues.push(code);
    }
    Ok(())
}

/// Read FASTA from any buffered reader into a database, one record in
/// flight at a time (the text itself is never held).
pub fn read<R: BufRead>(name: &str, reader: R) -> Result<SeqDb, ReadSeqError> {
    let mut db = SeqDb::new(name);
    for record in SeqReader::new(reader) {
        db.seqs.push(record?);
    }
    Ok(db)
}

/// Parse FASTA text into a database.
pub fn parse(name: &str, text: &str) -> Result<SeqDb, FastaError> {
    match read(name, text.as_bytes()) {
        Ok(db) => Ok(db),
        Err(ReadSeqError::Fasta(e)) => Err(e),
        // An in-memory byte slice cannot fail to read.
        Err(ReadSeqError::Io(e)) => unreachable!("io error on in-memory text: {e}"),
    }
}

/// Render a database as FASTA text, 60 columns per sequence line.
pub fn render(db: &SeqDb) -> String {
    let mut out = Vec::new();
    for seq in &db.seqs {
        out.push(b'>');
        out.extend_from_slice(seq.name.as_bytes());
        if !seq.desc.is_empty() {
            out.push(b' ');
            out.extend_from_slice(seq.desc.as_bytes());
        }
        out.push(b'\n');
        for chunk in seq.residues.chunks(60) {
            out.extend(chunk.iter().map(|&r| CODE_BYTE[r as usize]));
            out.push(b'\n');
        }
    }
    // Cannot fire: every byte pushed is ASCII or comes whole from a
    // `String`, so `out` is UTF-8.
    String::from_utf8(out).expect("headers are UTF-8 and residue symbols ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_hmm::alphabet::textize_seq;
    use proptest::prelude::*;

    const SAMPLE: &str = "\
>sp|P1|TEST first test protein
MKVLAY
WQRST
; a comment

>sp|P2|TEST2
acdefg
";

    #[test]
    fn parses_two_records() {
        let db = parse("sample", SAMPLE).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.seqs[0].name, "sp|P1|TEST");
        assert_eq!(db.seqs[0].desc, "first test protein");
        assert_eq!(textize_seq(&db.seqs[0].residues).unwrap(), "MKVLAYWQRST");
        assert_eq!(textize_seq(&db.seqs[1].residues).unwrap(), "ACDEFG");
    }

    #[test]
    fn round_trip() {
        let db = parse("sample", SAMPLE).unwrap();
        let text = render(&db);
        let db2 = parse("sample2", &text).unwrap();
        assert_eq!(db.seqs, db2.seqs);
    }

    #[test]
    fn long_sequence_wraps() {
        let mut db = SeqDb::new("w");
        db.seqs
            .push(DigitalSeq::from_text("long", &"A".repeat(150)).unwrap());
        let text = render(&db);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 60 + 60 + 30
        assert_eq!(lines[1].len(), 60);
        assert_eq!(lines[3].len(), 30);
    }

    #[test]
    fn data_before_header_rejected() {
        assert!(matches!(
            parse("x", "MKVL\n"),
            Err(FastaError::DataBeforeHeader { line: 1 })
        ));
    }

    #[test]
    fn bad_residue_rejected() {
        match parse("x", ">a\nMK1L\n") {
            Err(FastaError::BadResidue { line: 2, ch: '1' }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Gap characters are not allowed in unaligned target sequences.
        assert!(matches!(
            parse("x", ">a\nMK-L\n"),
            Err(FastaError::BadResidue { .. })
        ));
    }

    /// The reader as it was before the byte table: `read_line` into a
    /// `String`, then a `char`-wise walk of every line. Returns the records
    /// completed before the input ended or failed, and the failure.
    fn read_by_chars(mut input: &[u8]) -> (Vec<DigitalSeq>, Option<ReadSeqError>) {
        let mut done = Vec::new();
        let mut current: Option<DigitalSeq> = None;
        let mut buf = String::new();
        let mut lineno = 0;
        let empty = |seq: &DigitalSeq| FastaError::EmptyRecord {
            name: seq.name.clone(),
        };
        loop {
            buf.clear();
            match input.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => lineno += 1,
                Err(e) => return (done, Some(ReadSeqError::Io(e))),
            }
            let line = buf.trim_end();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            if let Some(header) = line.strip_prefix('>') {
                let mut parts = header.splitn(2, char::is_whitespace);
                let next = DigitalSeq {
                    name: parts.next().unwrap_or("").to_string(),
                    desc: parts.next().unwrap_or("").trim().to_string(),
                    residues: Vec::new(),
                };
                match current.replace(next) {
                    Some(seq) if seq.is_empty() => return (done, Some(empty(&seq).into())),
                    Some(seq) => done.push(seq),
                    None => {}
                }
                continue;
            }
            let Some(seq) = current.as_mut() else {
                return (
                    done,
                    Some(FastaError::DataBeforeHeader { line: lineno }.into()),
                );
            };
            for ch in line.chars().filter(|c| !c.is_whitespace()) {
                match digitize(ch) {
                    Ok(code) if !is_gap(code) => seq.residues.push(code),
                    _ => {
                        return (
                            done,
                            Some(FastaError::BadResidue { line: lineno, ch }.into()),
                        )
                    }
                }
            }
        }
        match current {
            Some(seq) if seq.is_empty() => (done, Some(empty(&seq).into())),
            Some(seq) => {
                done.push(seq);
                (done, None)
            }
            None => (done, None),
        }
    }

    /// Records and failure of the production reader, in the oracle's shape.
    fn read_by_bytes<R: BufRead>(reader: R) -> (Vec<DigitalSeq>, Option<ReadSeqError>) {
        let mut done = Vec::new();
        for record in SeqReader::new(reader) {
            match record {
                Ok(seq) => done.push(seq),
                Err(e) => return (done, Some(e)),
            }
        }
        (done, None)
    }

    /// A comparable rendering of a failure: grammar errors by value, I/O
    /// errors by kind and text.
    fn failure_key(
        e: &Option<ReadSeqError>,
    ) -> Option<Result<FastaError, (std::io::ErrorKind, String)>> {
        e.as_ref().map(|e| match e {
            ReadSeqError::Fasta(e) => Ok(e.clone()),
            ReadSeqError::Io(e) => Err((e.kind(), e.to_string())),
        })
    }

    fn assert_matches_char_reader(input: &[u8]) {
        let (want, want_err) = read_by_chars(input);
        let shown = String::from_utf8_lossy(&input[..input.len().min(200)]);
        // The scanning pass drives the reader through `read_record` with one
        // reused buffer; the iterator hands out fresh ones.
        let (got, got_err) = read_by_bytes(input);
        assert_eq!(got, want, "records differ on {shown:?}");
        assert_eq!(
            failure_key(&got_err),
            failure_key(&want_err),
            "on {shown:?}"
        );
        let mut reader = SeqReader::new(input);
        let mut rec = DigitalSeq::default();
        let mut reused = Vec::new();
        let reused_err = loop {
            match reader.read_record(&mut rec) {
                Ok(true) => reused.push(rec.clone()),
                Ok(false) => break None,
                Err(e) => break Some(e),
            }
        };
        assert_eq!(reused, want, "reused-buffer records differ on {shown:?}");
        assert_eq!(
            failure_key(&reused_err),
            failure_key(&want_err),
            "on {shown:?}"
        );
    }

    #[test]
    fn byte_reader_matches_char_reader_on_fixed_cases() {
        let cases: &[&[u8]] = &[
            SAMPLE.as_bytes(),
            b"",
            b"\n\n",
            b">a d\r\nMKVL\r\nAY\r\n>b\r\nWQ\r\n", // CRLF
            b">a\nMKVL \t \nAY\t\n",               // trailing blanks and tabs
            b">a\nMK VL\tAY\n",                    // interior spaces
            b">a\nMK\x0bVL\x0cAY\n",               // VT / FF are whitespace too
            b">a\nmkvlaybjzoux\n",                 // lowercase, degenerate
            b">a\nMK.VL\n",
            b">a\nMK-VL\n",
            b">a\nMK*\n",
            b">a\nMK~VL\n",
            b">a\nMK1L\n",
            ">a\nMK\u{e9}VL\n".as_bytes(),           // non-ASCII letter
            ">a\nMK\u{a0}VL\u{2028}AY\n".as_bytes(), // Unicode whitespace inside
            ">a\nMKVL\u{a0}\n".as_bytes(),           // ... and trailing
            ">a\nMKVL\n\u{2028}\u{a0}\n>b\nAY\n".as_bytes(), // a Unicode-blank line
            "\u{a0}\n>a\nMKVL\n".as_bytes(),         // ... before any header
            "\u{a0}M\n>a\nMKVL\n".as_bytes(),
            b">a\nMK\xffVL\n",           // invalid UTF-8 in a residue line
            b">a\nMK1\xffVL\n",          // ... after a bad residue
            b"MK\xffVL\n",               // ... before any header
            b">a \xc3\x28 desc\nMKVL\n", // ... in a header
            b">a\nMKVL\n>b\xff\nAY\n",   // ... in the next header
            b">a\n>b\xff\nAY\n",         // ... which outranks the empty record
            b">a\n; \xff\nMKVL\n",       // ... in a comment
            b">a\nMKVL",                 // no trailing newline
            b">a\nMKVL\n>b\nAY",
            b">a", // header-only file
            b">a\n",
            b">a desc only\n\n",
            b">a\nMKVL\n>b\n", // empty record at EOF
            b">a\n>b\nMKVL\n",
            b"; lead\n>a\n;mid\nMKVL\n; tail", // comments
            b">a\n ;MKVL\n",                   // an indented ';' is residue data
            b">a\nMK\n >b\nVL\n",              // an indented '>' too
            b"MKVL\n",                         // data before header
            b"\n \t\n;c\nMKVL\n>a\nAY\n",
            b">\nMKVL\n", // empty name
            b">  spaced   out  \nMKVL\n",
            ">n\u{2003}em-space desc\u{a0}\nMKVL\n".as_bytes(),
        ];
        for case in cases {
            assert_matches_char_reader(case);
        }
    }

    #[test]
    fn byte_reader_matches_char_reader_across_read_buffer_refills() {
        // One unwrapped residue line longer than the 1 MiB read buffer the
        // file sources use, clean and with a flaw past the first refill.
        let long = (1 << 20) + 4321;
        let mut text = b">long one line\n".to_vec();
        text.extend((0..long).map(|i| b"ACDEFGHIKLMNPQRSTVWYbjzoux"[i % 26]));
        text.extend_from_slice(b"\n>next\nMKVL\n");
        let (want, want_err) = read_by_chars(&text);
        assert_eq!((want.len(), want[0].len()), (2, long));
        assert!(want_err.is_none());
        let file_like = |bytes: &[u8]| {
            read_by_bytes(std::io::BufReader::with_capacity(
                1 << 20,
                std::io::Cursor::new(bytes.to_vec()),
            ))
        };
        let (got, got_err) = file_like(&text);
        assert!(got == want && got_err.is_none());
        for flaw in [b' ', b'-', b'1', 0xff] {
            let mut bad = text.clone();
            bad[(1 << 20) + 100] = flaw;
            let (want, want_err) = read_by_chars(&bad);
            let (got, got_err) = file_like(&bad);
            assert!(got == want, "flaw {flaw:#04x}");
            assert_eq!(
                failure_key(&got_err),
                failure_key(&want_err),
                "flaw {flaw:#04x}"
            );
        }
    }

    proptest! {
        /// The strategy of `tests/properties.rs::mutated_fasta_never_panics_
        /// the_parser` (render, truncate, overwrite bytes), fed to the reader
        /// as raw bytes so invalid UTF-8 is exercised as well.
        #[test]
        fn byte_reader_matches_char_reader_on_mutated_fasta(
            lens in prop::collection::vec(1usize..140, 1..8),
            cut_frac in 0.0f64..=1.0,
            flips in prop::collection::vec((0usize..4096, 0u8..=255u8), 0..6),
        ) {
            let mut db = SeqDb::new("p");
            for (i, &l) in lens.iter().enumerate() {
                db.seqs.push(DigitalSeq {
                    name: format!("s{i}"),
                    desc: if i % 2 == 0 { String::new() } else { format!("desc {i}") },
                    residues: (0..l).map(|j| ((i * 7 + j) % 26) as u8).collect(),
                });
            }
            let mut bytes = render(&db).into_bytes();
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            bytes.truncate(cut);
            for (pos, val) in flips {
                if let Some(n) = bytes.len().checked_sub(1) {
                    bytes[pos % (n + 1)] = val;
                }
            }
            assert_matches_char_reader(&bytes);
        }
    }

    #[test]
    fn empty_record_rejected() {
        assert!(matches!(
            parse("x", ">a\n>b\nMKVL\n"),
            Err(FastaError::EmptyRecord { name }) if name == "a"
        ));
    }
}
