//! Crash-safe on-disk packed database format (`.h3wdb`).
//!
//! The paper's Env_nr workload (§IV-A, 1.29 G residues) makes re-packing
//! the database on every invocation a real cost; a resident search
//! service wants to pay it once, at `dbgen` time, and then load a
//! validated binary image. This module defines that image: the 5-bit
//! residue packing of Fig. 6 ([`crate::pack`]) serialized with enough
//! redundancy that *any* single-bit flip or truncation is detected and
//! reported as a typed [`DbFormatError`] — the loader never panics and
//! never silently returns wrong residues.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic      8  b"H3WPACK\0"
//! version    4  u32 (currently 1)
//! n_sections 4  u32 (currently 5)
//! reserved   4  u32 (zero)
//! content    8  u64 FNV-1a hash of the *logical* database content
//!               (names, descriptions, residues) — the identity used by
//!               checkpoint drift guards and the serve metrics endpoint
//! table      5 × (id u32, len u64, crc u32) — one row per section
//! sections   concatenated payload bytes, in table order:
//!               1 META    db name, n_seqs, total_residues
//!               2 NAMES   per-seq (name, desc) strings
//!               3 INDEX   per-seq residue length + word offset
//!               4 WORDS   the packed 5-bit/6-per-word residue words
//!               5 LENBINS power-of-two length histogram (batch
//!                         scheduler / metrics aid)
//! trailer    8  u64 FNV-1a hash of every preceding byte of the file
//! ```
//!
//! Defense in depth: the whole-file trailer hash catches any corruption
//! of header, table, or payload (FNV-1a's per-byte step is a bijection
//! of the running state, so a single flipped bit anywhere always changes
//! the final value); the per-section CRC32s then localize the damage for
//! the diagnostic; and every parsed offset/length/code is bounds-checked
//! so even a hypothetical colliding corruption cannot cause a panic.
//!
//! Writes go through the same tmp-then-rename discipline as checkpoints
//! ([`DiskDb::write`]), so a crash mid-write never leaves a torn file at
//! the target path.

use crate::pack::{pack_seq, unpack_slot, PackedDb, PackedView, RESIDUES_PER_WORD};
use crate::seq::{DigitalSeq, SeqDb};
use h3w_hmm::alphabet::{N_DEGENERATE, N_STANDARD, PAD_CODE};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Current on-disk format version.
pub const DISKDB_VERSION: u32 = 1;

/// File magic, first 8 bytes.
pub const DISKDB_MAGIC: [u8; 8] = *b"H3WPACK\0";

/// Residue codes `0..MAX_RESIDUE_CODE` are valid sequence content
/// (standard + degenerate); gaps and the pad flag never appear in a
/// database.
const MAX_RESIDUE_CODE: u8 = (N_STANDARD + N_DEGENERATE) as u8; // 26

const SECTION_IDS: [u32; 5] = [1, 2, 3, 4, 5];
const SECTION_NAMES: [&str; 5] = ["META", "NAMES", "INDEX", "WORDS", "LENBINS"];

/// Why a packed database file could not be written or loaded. Every
/// corruption mode maps to a variant — the loader returns, it never
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbFormatError {
    /// Filesystem failure (path and OS diagnostic).
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        msg: String,
    },
    /// The file ends before a required field (truncation).
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first 8 bytes are not the `.h3wdb` magic.
    BadMagic,
    /// Written by an incompatible format version.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The section table does not describe this file (wrong ids, sizes
    /// that do not add up, trailing bytes).
    Layout(String),
    /// A section's payload fails its CRC32 (bit-level corruption).
    SectionCrc {
        /// Section name (`META`, `NAMES`, `INDEX`, `WORDS`, `LENBINS`).
        section: &'static str,
    },
    /// The whole-file trailer hash disagrees with the bytes read.
    FileHash {
        /// Hash recorded in the trailer.
        expected: u64,
        /// Hash of the bytes actually read.
        found: u64,
    },
    /// Checksums pass but the decoded structure is inconsistent
    /// (offsets out of range, invalid residue codes, count mismatches).
    Corrupt(String),
}

impl std::fmt::Display for DbFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbFormatError::Io { path, msg } => write!(f, "packed db {path}: {msg}"),
            DbFormatError::Truncated { needed, have } => {
                write!(f, "packed db truncated: needed {needed} bytes, have {have}")
            }
            DbFormatError::BadMagic => write!(f, "not a packed database (bad magic)"),
            DbFormatError::Version { found } => write!(
                f,
                "packed db format version {found} (this build reads {DISKDB_VERSION})"
            ),
            DbFormatError::Layout(msg) => write!(f, "packed db layout error: {msg}"),
            DbFormatError::SectionCrc { section } => {
                write!(f, "packed db section {section} failed its CRC32 check")
            }
            DbFormatError::FileHash { expected, found } => write!(
                f,
                "packed db content hash mismatch: file says {expected:016x}, bytes hash to {found:016x}"
            ),
            DbFormatError::Corrupt(msg) => write!(f, "packed db corrupt: {msg}"),
        }
    }
}

impl std::error::Error for DbFormatError {}

/// One bucket of the power-of-two length histogram: sequence lengths in
/// `min_len..=max_len` occur `count` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthBin {
    /// Smallest length in the bin (a power of two).
    pub min_len: u32,
    /// Largest length in the bin (`2*min_len - 1`).
    pub max_len: u32,
    /// Sequences whose length falls in the bin.
    pub count: u32,
}

/// Index of the power-of-two length bin a sequence of `len` residues
/// falls into (bin `k` covers `2^k ..= 2^(k+1) - 1`).
pub fn length_bin_index(len: usize) -> usize {
    (len.max(1) as u32).ilog2() as usize
}

/// Materialize the non-empty bins of a 32-slot power-of-two histogram.
pub fn bins_from_counts(counts: &[u32; 32]) -> Vec<LengthBin> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| LengthBin {
            min_len: 1u32 << k,
            max_len: (1u32 << k) * 2 - 1,
            count: c,
        })
        .collect()
}

/// Power-of-two length histogram of a database (only non-empty bins).
pub fn length_bins(db: &SeqDb) -> Vec<LengthBin> {
    let mut counts = [0u32; 32];
    for s in &db.seqs {
        counts[length_bin_index(s.len())] += 1;
    }
    bins_from_counts(&counts)
}

/// FNV-1a 64-bit over the *logical* content of a database: the label,
/// every name/description, and every residue byte. Two databases hash
/// equal iff a sweep over them is the same sweep — this is the identity
/// recorded in checkpoints and packed files to reject drift.
pub fn content_hash(db: &SeqDb) -> u64 {
    let mut h = ContentHasher::new(&db.name);
    for s in &db.seqs {
        h.push_seq(&s.name, &s.desc, &s.residues);
    }
    h.finish()
}

/// Incremental form of [`content_hash`] for streaming producers (the
/// FASTA scanner and [`DiskDbWriter`]) that never hold the whole
/// database: feed sequences one at a time, in database order, and
/// `finish()` equals `content_hash` of the materialized database.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    h: Fnv,
}

impl ContentHasher {
    /// Start a hash for a database labeled `db_name`.
    pub fn new(db_name: &str) -> ContentHasher {
        let mut h = Fnv::new();
        h.update(db_name.as_bytes());
        h.update(&[0]);
        ContentHasher { h }
    }

    /// Absorb one sequence (must be called in database order).
    pub fn push_seq(&mut self, name: &str, desc: &str, residues: &[u8]) {
        self.h.update(name.as_bytes());
        self.h.update(&[0]);
        self.h.update(desc.as_bytes());
        self.h.update(&[0]);
        self.h.update(residues);
        self.h.update(&[0xff]);
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }
}

/// A validated, loaded packed database: the device-ready word image plus
/// the per-sequence headers needed to report hits. Read-only by
/// construction — wrap it in an `Arc` to share across service workers.
#[derive(Debug, Clone)]
pub struct DiskDb {
    /// Database label (`dbgen`'s spec name).
    pub name: String,
    /// Packed words + offsets + lengths, exactly as [`PackedDb::from_db`]
    /// would produce from the original database.
    pub packed: PackedDb,
    /// Per-sequence `(name, desc)` headers, database order.
    pub headers: Vec<(String, String)>,
    /// Total real residues (from META, cross-checked against INDEX).
    pub total_residues: u64,
    /// Logical content hash (see [`content_hash`]).
    pub content_hash: u64,
    /// Power-of-two length histogram.
    pub bins: Vec<LengthBin>,
}

impl DiskDb {
    /// Number of sequences.
    pub fn n_seqs(&self) -> usize {
        self.headers.len()
    }

    /// Zero-copy view of the packed words (what device stages consume).
    pub fn view(&self) -> PackedView<'_> {
        self.packed.view()
    }

    /// Serialize a database to the `.h3wdb` byte image.
    pub fn to_bytes(db: &SeqDb) -> Vec<u8> {
        let mut meta = Vec::new();
        put_str16(&mut meta, &db.name);
        put_u32(&mut meta, db.len() as u32);
        put_u64(&mut meta, db.total_residues());

        let mut names = Vec::new();
        for s in &db.seqs {
            put_str16(&mut names, &s.name);
            put_str16(&mut names, &s.desc);
        }

        let mut index = Vec::new();
        let mut words: Vec<u8> = Vec::new();
        let mut word_off = 0u32;
        put_u32(&mut words, 0); // word count, patched below
        for s in &db.seqs {
            put_u32(&mut index, s.len() as u32);
            put_u32(&mut index, word_off);
            let packed = pack_seq(&s.residues);
            for w in &packed {
                put_u32(&mut words, *w);
            }
            word_off += packed.len() as u32;
        }
        let n_words_le = word_off.to_le_bytes();
        words[..4].copy_from_slice(&n_words_le);

        let mut lenbins = Vec::new();
        let bins = length_bins(db);
        put_u32(&mut lenbins, bins.len() as u32);
        for b in &bins {
            put_u32(&mut lenbins, b.min_len);
            put_u32(&mut lenbins, b.max_len);
            put_u32(&mut lenbins, b.count);
        }

        let sections = [meta, names, index, words, lenbins];
        let mut out = Vec::new();
        out.extend_from_slice(&DISKDB_MAGIC);
        put_u32(&mut out, DISKDB_VERSION);
        put_u32(&mut out, sections.len() as u32);
        put_u32(&mut out, 0);
        put_u64(&mut out, content_hash(db));
        for (i, s) in sections.iter().enumerate() {
            put_u32(&mut out, SECTION_IDS[i]);
            put_u64(&mut out, s.len() as u64);
            put_u32(&mut out, crc32(s));
        }
        for s in &sections {
            out.extend_from_slice(s);
        }
        let file_hash = fnv1a(&out);
        put_u64(&mut out, file_hash);
        out
    }

    /// Write a database to `path` atomically (tmp + rename, like
    /// checkpoints): a crash mid-write never leaves a torn `.h3wdb`.
    pub fn write(db: &SeqDb, path: &Path) -> Result<(), DbFormatError> {
        let io = |e: std::io::Error| DbFormatError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        let tmp = path.with_extension("h3wdb.tmp");
        std::fs::write(&tmp, DiskDb::to_bytes(db)).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Parse and validate a `.h3wdb` byte image. Every failure mode —
    /// truncation, bit flips, version skew, inconsistent indices — is a
    /// typed [`DbFormatError`]; this function never panics on any input.
    pub fn from_bytes(bytes: &[u8]) -> Result<DiskDb, DbFormatError> {
        // Trailer first: the whole-file hash covers header and table too,
        // so a flip anywhere (including inside the CRCs themselves) is
        // caught before any field is trusted. Magic/version are checked
        // before the hash so a wrong-format or wrong-version file gets
        // its specific diagnostic rather than a generic hash mismatch.
        let mut c = Cursor::new(bytes);
        let magic = c.take(8)?;
        if magic != DISKDB_MAGIC {
            return Err(DbFormatError::BadMagic);
        }
        let version = c.u32()?;
        if version != DISKDB_VERSION {
            return Err(DbFormatError::Version { found: version });
        }
        if bytes.len() < 8 {
            return Err(DbFormatError::Truncated {
                needed: 8,
                have: bytes.len(),
            });
        }
        let body_len = bytes.len() - 8;
        let expected = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
        let found = fnv1a(&bytes[..body_len]);
        if expected != found {
            return Err(DbFormatError::FileHash { expected, found });
        }
        let body = &bytes[..body_len];
        let mut c = Cursor::new(body);
        c.take(8)?; // magic, already checked
        c.u32()?; // version, already checked
        let n_sections = c.u32()? as usize;
        if n_sections != SECTION_IDS.len() {
            return Err(DbFormatError::Layout(format!(
                "expected {} sections, header says {n_sections}",
                SECTION_IDS.len()
            )));
        }
        let reserved = c.u32()?;
        if reserved != 0 {
            return Err(DbFormatError::Layout(format!(
                "reserved field is {reserved:#x}, expected 0"
            )));
        }
        let logical_hash = c.u64()?;
        let mut table = Vec::with_capacity(n_sections);
        for (i, &id) in SECTION_IDS.iter().enumerate() {
            let found_id = c.u32()?;
            if found_id != id {
                return Err(DbFormatError::Layout(format!(
                    "section {i} has id {found_id}, expected {id} ({})",
                    SECTION_NAMES[i]
                )));
            }
            let len = c.u64()?;
            let crc = c.u32()?;
            if len > body.len() as u64 {
                return Err(DbFormatError::Layout(format!(
                    "section {} claims {len} bytes in a {}-byte file",
                    SECTION_NAMES[i],
                    bytes.len()
                )));
            }
            table.push((len as usize, crc));
        }
        let payload_total: usize = table.iter().map(|&(len, _)| len).sum();
        let have = body.len() - c.pos;
        if have != payload_total {
            return Err(DbFormatError::Layout(format!(
                "section table claims {payload_total} payload bytes, file holds {have}"
            )));
        }
        let mut sections: Vec<&[u8]> = Vec::with_capacity(n_sections);
        for (i, &(len, crc)) in table.iter().enumerate() {
            let s = c.take(len)?;
            if crc32(s) != crc {
                return Err(DbFormatError::SectionCrc {
                    section: SECTION_NAMES[i],
                });
            }
            sections.push(s);
        }

        // META
        let mut m = Cursor::new(sections[0]);
        let db_name = m.str16()?;
        let n_seqs = m.u32()? as usize;
        let total_residues = m.u64()?;
        m.end("META")?;

        // NAMES
        let mut n = Cursor::new(sections[1]);
        let mut headers = Vec::with_capacity(n_seqs);
        for _ in 0..n_seqs {
            let name = n.str16()?;
            let desc = n.str16()?;
            headers.push((name, desc));
        }
        n.end("NAMES")?;

        // INDEX
        let mut ix = Cursor::new(sections[2]);
        let mut lengths = Vec::with_capacity(n_seqs);
        let mut offsets = Vec::with_capacity(n_seqs);
        for _ in 0..n_seqs {
            lengths.push(ix.u32()?);
            offsets.push(ix.u32()?);
        }
        ix.end("INDEX")?;

        // WORDS
        let mut w = Cursor::new(sections[3]);
        let n_words = w.u32()? as usize;
        if sections[3].len() != 4 + n_words * 4 {
            return Err(DbFormatError::Corrupt(format!(
                "WORDS claims {n_words} words but section holds {} bytes",
                sections[3].len()
            )));
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(w.u32()?);
        }

        // Cross-checks: offsets/lengths must tile the word buffer exactly
        // in database order, and the residue total must match META.
        let mut expect_off = 0u64;
        let mut residue_total = 0u64;
        for (i, (&len, &off)) in lengths.iter().zip(&offsets).enumerate() {
            if off as u64 != expect_off {
                return Err(DbFormatError::Corrupt(format!(
                    "sequence {i} at word offset {off}, expected {expect_off}"
                )));
            }
            let seq_words = (len as u64).div_ceil(RESIDUES_PER_WORD as u64).max(1);
            expect_off += seq_words;
            residue_total += len as u64;
        }
        if expect_off != words.len() as u64 {
            return Err(DbFormatError::Corrupt(format!(
                "index tiles {expect_off} words, WORDS holds {}",
                words.len()
            )));
        }
        if residue_total != total_residues {
            return Err(DbFormatError::Corrupt(format!(
                "META says {total_residues} residues, index sums to {residue_total}"
            )));
        }

        // LENBINS
        let mut lb = Cursor::new(sections[4]);
        let n_bins = lb.u32()? as usize;
        let mut bins = Vec::with_capacity(n_bins.min(64));
        for _ in 0..n_bins {
            bins.push(LengthBin {
                min_len: lb.u32()?,
                max_len: lb.u32()?,
                count: lb.u32()?,
            });
        }
        lb.end("LENBINS")?;
        let bin_total: u64 = bins.iter().map(|b| b.count as u64).sum();
        if bin_total != n_seqs as u64 {
            return Err(DbFormatError::Corrupt(format!(
                "length bins cover {bin_total} sequences of {n_seqs}"
            )));
        }

        let packed = PackedDb {
            words,
            offsets,
            lengths,
        };
        // Validate residue codes: real slots must be in-alphabet, pad
        // slots must be exactly PAD_CODE. Guarantees downstream kernels
        // never see a code the score tables were not built for. The same
        // decode feeds the content hash, through one reused buffer, which
        // ties the header's logical hash to the payload: the recorded
        // identity is recomputed, not trusted.
        let view = packed.view();
        let mut content = ContentHasher::new(&db_name);
        let mut residues = Vec::new();
        for (seqid, (name, desc)) in headers.iter().enumerate() {
            residues.clear();
            view.unpack_seq_into(seqid, &mut residues);
            if let Some(slot) = residues.iter().position(|&c| c >= MAX_RESIDUE_CODE) {
                return Err(DbFormatError::Corrupt(format!(
                    "sequence {seqid} residue {slot} has invalid code {}",
                    residues[slot]
                )));
            }
            // The tiling check above put this sequence's words in range.
            let len = residues.len();
            let seq_words = len.div_ceil(RESIDUES_PER_WORD).max(1);
            let last = view.words[view.offsets[seqid] as usize + seq_words - 1];
            for slot in len..seq_words * RESIDUES_PER_WORD {
                let code = unpack_slot(last, slot % RESIDUES_PER_WORD);
                if code != PAD_CODE {
                    return Err(DbFormatError::Corrupt(format!(
                        "sequence {seqid} pad slot {slot} holds code {code}"
                    )));
                }
            }
            content.push_seq(name, desc, &residues);
        }
        let recomputed = content.finish();
        if recomputed != logical_hash {
            return Err(DbFormatError::Corrupt(format!(
                "header content hash {logical_hash:016x} but decoded content hashes to {recomputed:016x}"
            )));
        }

        Ok(DiskDb {
            name: db_name,
            packed,
            headers,
            total_residues,
            content_hash: logical_hash,
            bins,
        })
    }

    /// Load and validate a `.h3wdb` file.
    pub fn load(path: &Path) -> Result<DiskDb, DbFormatError> {
        let bytes = std::fs::read(path).map_err(|e| DbFormatError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        DiskDb::from_bytes(&bytes)
    }

    /// Unpack back into an in-memory [`SeqDb`]. Round-trips exactly:
    /// `DiskDb::from_bytes(DiskDb::to_bytes(&db))?.to_seqdb() == db`.
    pub fn to_seqdb(&self) -> SeqDb {
        let view = self.packed.view();
        let seqs = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, (name, desc))| DigitalSeq {
                name: name.clone(),
                desc: desc.clone(),
                residues: view.unpack_seq(i),
            })
            .collect();
        SeqDb {
            name: self.name.clone(),
            seqs,
        }
    }

    /// Decode one sequence (header + unpacked residues) by index.
    pub fn seq(&self, i: usize) -> DigitalSeq {
        let (name, desc) = &self.headers[i];
        DigitalSeq {
            name: name.clone(),
            desc: desc.clone(),
            residues: self.packed.view().unpack_seq(i),
        }
    }

    /// Split into read-only shards of at most `max_residues` residues
    /// each (whole sequences; only a single sequence longer than the cap
    /// may form an oversized shard, alone). Shard boundaries are where a
    /// resident service checks query deadlines, so the bound also caps
    /// deadline latency.
    pub fn shards(&self, max_residues: u64) -> Vec<SeqDb> {
        assert!(max_residues > 0);
        let mut shards = Vec::new();
        let mut cur = SeqDb::new(self.name.clone());
        let mut cur_residues = 0u64;
        for i in 0..self.n_seqs() {
            let len = self.packed.lengths[i] as u64;
            // Close the running shard *before* a sequence that would push
            // it past the cap — never after, which used to let every
            // shard overshoot by up to one sequence.
            if !cur.seqs.is_empty() && cur_residues + len > max_residues {
                shards.push(std::mem::replace(&mut cur, SeqDb::new(self.name.clone())));
                cur_residues = 0;
            }
            cur.seqs.push(self.seq(i));
            cur_residues += len;
        }
        if !cur.seqs.is_empty() {
            shards.push(cur);
        }
        shards
    }
}

/// Summary returned by [`DiskDbWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskDbSummary {
    /// Sequences written.
    pub n_seqs: usize,
    /// Total real residues written.
    pub total_residues: u64,
    /// Logical content hash of the written database (see
    /// [`content_hash`]).
    pub content_hash: u64,
}

/// Streaming `.h3wdb` writer: sequences go in one at a time and are
/// spilled to per-section temporary files, so a 1.29 G-residue database
/// can be packed in constant memory. [`DiskDbWriter::finish`] assembles
/// the final image (header + section table + payloads + trailer) and
/// renames it into place atomically; the bytes are identical to
/// `DiskDb::to_bytes` of the materialized database.
pub struct DiskDbWriter {
    path: PathBuf,
    db_name: String,
    names: SectionSpill,
    index: SectionSpill,
    words: SectionSpill,
    n_seqs: usize,
    total_residues: u64,
    word_off: u32,
    content: ContentHasher,
    bin_counts: [u32; 32],
}

/// One payload spilled to a temporary file, with its CRC and length
/// tracked as bytes go out.
struct SectionSpill {
    path: PathBuf,
    w: BufWriter<std::fs::File>,
    crc: Crc32,
    len: u64,
}

impl SectionSpill {
    fn create(path: PathBuf) -> std::io::Result<SectionSpill> {
        let file = std::fs::File::create(&path)?;
        Ok(SectionSpill {
            path,
            w: BufWriter::with_capacity(1 << 20, file),
            crc: Crc32::new(),
            len: 0,
        })
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.w.write_all(bytes)?;
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }
}

impl DiskDbWriter {
    /// Open a streaming writer targeting `path`; `db_name` is the
    /// database label recorded in META (and the first field of the
    /// content hash).
    pub fn create(path: &Path, db_name: &str) -> Result<DiskDbWriter, DbFormatError> {
        let io = |e: std::io::Error| DbFormatError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        let spill = |ext: &str| -> Result<SectionSpill, DbFormatError> {
            SectionSpill::create(path.with_extension(ext)).map_err(io)
        };
        Ok(DiskDbWriter {
            path: path.to_path_buf(),
            db_name: db_name.to_string(),
            names: spill("h3wdb.names.tmp")?,
            index: spill("h3wdb.index.tmp")?,
            words: spill("h3wdb.words.tmp")?,
            n_seqs: 0,
            total_residues: 0,
            word_off: 0,
            content: ContentHasher::new(db_name),
            bin_counts: [0u32; 32],
        })
    }

    /// Append one sequence (database order).
    pub fn push(&mut self, seq: &DigitalSeq) -> Result<(), DbFormatError> {
        let io = |e: std::io::Error| DbFormatError::Io {
            path: self.path.display().to_string(),
            msg: e.to_string(),
        };
        if self.n_seqs == u32::MAX as usize {
            return Err(DbFormatError::Corrupt(
                "database exceeds the format's u32 sequence count".into(),
            ));
        }
        let mut name = Vec::new();
        put_str16(&mut name, &seq.name);
        put_str16(&mut name, &seq.desc);
        self.names.put(&name).map_err(io)?;

        let mut ix = Vec::new();
        put_u32(&mut ix, seq.len() as u32);
        put_u32(&mut ix, self.word_off);
        self.index.put(&ix).map_err(io)?;

        let packed = pack_seq(&seq.residues);
        let mut wbytes = Vec::with_capacity(packed.len() * 4);
        for w in &packed {
            put_u32(&mut wbytes, *w);
        }
        self.words.put(&wbytes).map_err(io)?;
        self.word_off = self
            .word_off
            .checked_add(packed.len() as u32)
            .ok_or_else(|| {
                DbFormatError::Corrupt("database exceeds the format's u32 word offset".into())
            })?;

        self.content.push_seq(&seq.name, &seq.desc, &seq.residues);
        self.bin_counts[length_bin_index(seq.len())] += 1;
        self.n_seqs += 1;
        self.total_residues += seq.len() as u64;
        Ok(())
    }

    /// Seal the file: build META/LENBINS, stitch the spilled payloads
    /// together under the header + section table, append the whole-file
    /// FNV trailer, and rename into place. Removes the temporaries.
    pub fn finish(self) -> Result<DiskDbSummary, DbFormatError> {
        let path = self.path.clone();
        let io = |e: std::io::Error| DbFormatError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        let DiskDbWriter {
            path,
            db_name,
            names,
            index,
            words,
            n_seqs,
            total_residues,
            word_off,
            content,
            bin_counts,
        } = self;

        let mut meta = Vec::new();
        put_str16(&mut meta, &db_name);
        put_u32(&mut meta, n_seqs as u32);
        put_u64(&mut meta, total_residues);

        let mut lenbins = Vec::new();
        let bins = bins_from_counts(&bin_counts);
        put_u32(&mut lenbins, bins.len() as u32);
        for b in &bins {
            put_u32(&mut lenbins, b.min_len);
            put_u32(&mut lenbins, b.max_len);
            put_u32(&mut lenbins, b.count);
        }

        // Close the spills and collect (path, len, crc) per section. The
        // WORDS payload carries a leading word count that is only known
        // now, so its CRC restarts from the 4-byte prefix and replays the
        // spilled body.
        let close = |s: SectionSpill| -> Result<(PathBuf, u64, Crc32), DbFormatError> {
            let SectionSpill {
                path: p,
                w,
                crc,
                len,
            } = s;
            w.into_inner().map_err(|e| DbFormatError::Io {
                path: p.display().to_string(),
                msg: e.to_string(),
            })?;
            Ok((p, len, crc))
        };
        let (names_p, names_len, names_crc) = close(names)?;
        let (index_p, index_len, index_crc) = close(index)?;
        let (words_p, words_len, _) = close(words)?;
        let words_prefix = word_off.to_le_bytes();
        let mut words_crc = Crc32::new();
        words_crc.update(&words_prefix);
        stream_file(&words_p, |chunk| words_crc.update(chunk)).map_err(io)?;

        // Header + section table, then payloads, all through one FNV so
        // the trailer covers every preceding byte — exactly `to_bytes`.
        let sections: [(u64, u32); 5] = [
            (meta.len() as u64, crc32(&meta)),
            (names_len, names_crc.finish()),
            (index_len, index_crc.finish()),
            (4 + words_len, words_crc.finish()),
            (lenbins.len() as u64, crc32(&lenbins)),
        ];
        let mut head = Vec::new();
        head.extend_from_slice(&DISKDB_MAGIC);
        put_u32(&mut head, DISKDB_VERSION);
        put_u32(&mut head, sections.len() as u32);
        put_u32(&mut head, 0);
        put_u64(&mut head, content.finish());
        for (i, &(len, crc)) in sections.iter().enumerate() {
            put_u32(&mut head, SECTION_IDS[i]);
            put_u64(&mut head, len);
            put_u32(&mut head, crc);
        }

        let final_tmp = path.with_extension("h3wdb.tmp");
        {
            let file = std::fs::File::create(&final_tmp).map_err(io)?;
            let mut out = BufWriter::with_capacity(1 << 20, file);
            let mut fnv = Fnv::new();
            let put = |out: &mut BufWriter<std::fs::File>,
                       fnv: &mut Fnv,
                       bytes: &[u8]|
             -> std::io::Result<()> {
                out.write_all(bytes)?;
                fnv.update(bytes);
                Ok(())
            };
            put(&mut out, &mut fnv, &head).map_err(io)?;
            put(&mut out, &mut fnv, &meta).map_err(io)?;
            for p in [&names_p, &index_p] {
                let mut res = Ok(());
                stream_file(p, |chunk| {
                    if res.is_ok() {
                        res = put(&mut out, &mut fnv, chunk);
                    }
                })
                .map_err(io)?;
                res.map_err(io)?;
            }
            put(&mut out, &mut fnv, &words_prefix).map_err(io)?;
            let mut res = Ok(());
            stream_file(&words_p, |chunk| {
                if res.is_ok() {
                    res = put(&mut out, &mut fnv, chunk);
                }
            })
            .map_err(io)?;
            res.map_err(io)?;
            put(&mut out, &mut fnv, &lenbins).map_err(io)?;
            let trailer = fnv.finish().to_le_bytes();
            out.write_all(&trailer).map_err(io)?;
            out.flush().map_err(io)?;
        }
        for p in [&names_p, &index_p, &words_p] {
            let _ = std::fs::remove_file(p);
        }
        std::fs::rename(&final_tmp, &path).map_err(io)?;
        Ok(DiskDbSummary {
            n_seqs,
            total_residues,
            content_hash: content.finish(),
        })
    }
}

/// Stream a file through `f` in 1 MiB chunks.
fn stream_file(path: &Path, mut f: impl FnMut(&[u8])) -> std::io::Result<()> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        f(&buf[..n]);
    }
}

// ---------------------------------------------------------------------
// Byte-level helpers (hand-rolled; the workspace vendors no serde).

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

/// Bounds-checked reader over a byte slice: every overrun is a typed
/// [`DbFormatError::Truncated`], never a slice panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DbFormatError> {
        let end = self.pos.checked_add(n).ok_or(DbFormatError::Truncated {
            needed: usize::MAX,
            have: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(DbFormatError::Truncated {
                needed: end,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, DbFormatError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, DbFormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DbFormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str16(&mut self) -> Result<String, DbFormatError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DbFormatError::Corrupt("string is not UTF-8".into()))
    }

    fn end(&mut self, section: &str) -> Result<(), DbFormatError> {
        if self.pos != self.bytes.len() {
            return Err(DbFormatError::Corrupt(format!(
                "{section} has {} trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Checksums (dependency-free).

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Incremental CRC-32 (IEEE, reflected) for streaming writers that
/// checksum payloads they never hold in memory at once.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh state (equals `crc32(b"")` when finished immediately).
    pub fn new() -> Crc32 {
        Crc32(0xffff_ffff)
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = CRC_TABLE[((self.0 ^ b as u32) & 0xff) as usize] ^ (self.0 >> 8);
        }
    }

    /// The CRC of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

/// FNV-1a 64-bit of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Fresh state (the FNV-1a offset basis).
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, DbGenSpec};

    fn sample_db() -> SeqDb {
        let mut spec = DbGenSpec::swissprot_like().scaled(2e-4);
        spec.homolog_fraction = 0.0;
        generate(&spec, None, 11)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn round_trip_is_exact() {
        let db = sample_db();
        let bytes = DiskDb::to_bytes(&db);
        let loaded = DiskDb::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.name, db.name);
        assert_eq!(loaded.n_seqs(), db.len());
        assert_eq!(loaded.total_residues, db.total_residues());
        assert_eq!(loaded.content_hash, content_hash(&db));
        let back = loaded.to_seqdb();
        assert_eq!(back.seqs, db.seqs);
        // The packed image matches a direct in-memory packing.
        let direct = PackedDb::from_db(&db);
        assert_eq!(loaded.packed.words, direct.words);
        assert_eq!(loaded.packed.offsets, direct.offsets);
        assert_eq!(loaded.packed.lengths, direct.lengths);
    }

    #[test]
    fn write_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("h3w-diskdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.h3wdb");
        let db = sample_db();
        DiskDb::write(&db, &path).unwrap();
        let loaded = DiskDb::load(&path).unwrap();
        assert_eq!(loaded.to_seqdb().seqs, db.seqs);
        // No torn tmp file left behind.
        assert!(!path.with_extension("h3wdb.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_in_a_small_file_is_detected() {
        let mut db = SeqDb::new("tiny");
        db.seqs
            .push(DigitalSeq::from_text("s1", "MKVLAYWDE").unwrap());
        db.seqs
            .push(DigitalSeq::from_text("s2", "ACDEFGH").unwrap());
        let bytes = DiskDb::to_bytes(&db);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    DiskDb::from_bytes(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn checksummed_file_with_a_wrong_pad_slot_is_corrupt() {
        // Not reachable by bit rot (the trailer and CRC catch that): a file
        // re-sealed around a pad slot that does not hold PAD_CODE, which the
        // device kernels would read as a seventh residue.
        let mut db = SeqDb::new("pad");
        db.seqs.push(DigitalSeq::from_text("s1", "MKVL").unwrap());
        let mut bytes = DiskDb::to_bytes(&db);
        let table = 28; // magic + version + n_sections + reserved + content
        let row = |i: usize| table + 16 * i;
        let len_of = |bytes: &[u8], i: usize| {
            u64::from_le_bytes(bytes[row(i) + 4..row(i) + 12].try_into().unwrap()) as usize
        };
        let words_at = row(5) + (0..3).map(|i| len_of(&bytes, i)).sum::<usize>();
        let words_len = len_of(&bytes, 3);
        assert_eq!(words_len, 8, "word count + one word");
        bytes[words_at + 7] &= !0x3e; // slot 5 (bits 25..30): PAD_CODE -> 0
        let crc = crc32(&bytes[words_at..words_at + words_len]);
        bytes[row(3) + 12..row(3) + 16].copy_from_slice(&crc.to_le_bytes());
        let body = bytes.len() - 8;
        let trailer = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&trailer.to_le_bytes());
        match DiskDb::from_bytes(&bytes) {
            Err(DbFormatError::Corrupt(msg)) => assert!(msg.contains("pad slot 5"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncations_and_extensions_are_typed_errors() {
        let db = sample_db();
        let bytes = DiskDb::to_bytes(&db);
        for cut in [0, 1, 7, 8, 27, bytes.len() / 2, bytes.len() - 1] {
            let err = DiskDb::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DbFormatError::Truncated { .. }
                        | DbFormatError::BadMagic
                        | DbFormatError::Layout(_)
                        | DbFormatError::FileHash { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(DiskDb::from_bytes(&extended).is_err());
    }

    #[test]
    fn version_and_magic_mismatches_are_specific() {
        let db = sample_db();
        let bytes = DiskDb::to_bytes(&db);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            DiskDb::from_bytes(&wrong_magic).unwrap_err(),
            DbFormatError::BadMagic
        );
        let mut wrong_version = bytes.clone();
        wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            DiskDb::from_bytes(&wrong_version).unwrap_err(),
            DbFormatError::Version { found: 99 }
        );
        assert_eq!(
            DiskDb::from_bytes(&[]).unwrap_err(),
            DbFormatError::Truncated { needed: 8, have: 0 }
        );
    }

    #[test]
    fn missing_file_is_io() {
        let err = DiskDb::load(Path::new("/nonexistent/db.h3wdb")).unwrap_err();
        assert!(matches!(err, DbFormatError::Io { .. }));
    }

    #[test]
    fn shards_partition_whole_sequences() {
        let db = sample_db();
        let loaded = DiskDb::from_bytes(&DiskDb::to_bytes(&db)).unwrap();
        let shards = loaded.shards(10_000);
        assert!(shards.len() > 1, "expected several shards");
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, db.len());
        let mut idx = 0usize;
        for sh in &shards {
            for s in &sh.seqs {
                assert_eq!(*s, db.seqs[idx], "seq {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn shards_never_exceed_the_cap() {
        // Regression: the old loop closed a shard only *after* the
        // running total crossed the cap, so every shard could overshoot
        // by up to one sequence.
        let db = sample_db();
        let loaded = DiskDb::from_bytes(&DiskDb::to_bytes(&db)).unwrap();
        let cap = 10_000u64;
        for sh in loaded.shards(cap) {
            assert!(
                sh.total_residues() <= cap || sh.len() == 1,
                "shard of {} residues / {} seqs exceeds cap {cap}",
                sh.total_residues(),
                sh.len()
            );
        }
    }

    #[test]
    fn oversized_sequence_forms_its_own_shard() {
        let mut db = SeqDb::new("big");
        db.seqs.push(DigitalSeq {
            name: "small-a".into(),
            desc: String::new(),
            residues: vec![0; 40],
        });
        db.seqs.push(DigitalSeq {
            name: "huge".into(),
            desc: String::new(),
            residues: vec![1; 500],
        });
        db.seqs.push(DigitalSeq {
            name: "small-b".into(),
            desc: String::new(),
            residues: vec![2; 40],
        });
        let loaded = DiskDb::from_bytes(&DiskDb::to_bytes(&db)).unwrap();
        let shards = loaded.shards(100);
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1]);
        assert_eq!(shards[1].seqs[0].name, "huge");
    }

    #[test]
    fn streaming_writer_is_byte_identical_to_to_bytes() {
        let db = sample_db();
        let dir = std::env::temp_dir().join(format!("h3w-dbwriter-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamed.h3wdb");
        let mut w = DiskDbWriter::create(&path, &db.name).unwrap();
        for s in &db.seqs {
            w.push(s).unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.n_seqs, db.len());
        assert_eq!(summary.total_residues, db.total_residues());
        assert_eq!(summary.content_hash, content_hash(&db));
        let streamed = std::fs::read(&path).unwrap();
        assert_eq!(streamed, DiskDb::to_bytes(&db), "byte images differ");
        // No temporaries left behind.
        for ext in [
            "h3wdb.tmp",
            "h3wdb.names.tmp",
            "h3wdb.index.tmp",
            "h3wdb.words.tmp",
        ] {
            assert!(!path.with_extension(ext).exists(), "{ext} left behind");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_hashers_match_one_shot() {
        let data = b"incremental hashing must match one-shot hashing";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
        let mut f = Fnv::new();
        for chunk in data.chunks(5) {
            f.update(chunk);
        }
        assert_eq!(f.finish(), fnv1a(data));
    }

    #[test]
    fn length_bins_cover_every_sequence() {
        let db = sample_db();
        let bins = length_bins(&db);
        assert!(!bins.is_empty());
        let total: u64 = bins.iter().map(|b| b.count as u64).sum();
        assert_eq!(total, db.len() as u64);
        for b in &bins {
            assert!(b.min_len.is_power_of_two());
            assert_eq!(b.max_len, b.min_len * 2 - 1);
        }
    }

    #[test]
    fn content_hash_tracks_logical_changes_only() {
        let db = sample_db();
        let h = content_hash(&db);
        assert_eq!(h, content_hash(&db.clone()));
        let mut renamed = db.clone();
        renamed.seqs[0].name.push('x');
        assert_ne!(h, content_hash(&renamed));
        let mut mutated = db.clone();
        mutated.seqs[3].residues[0] ^= 1;
        assert_ne!(h, content_hash(&mutated));
    }
}
