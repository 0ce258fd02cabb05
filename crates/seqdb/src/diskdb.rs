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
//! The loader does not run those layers one after another. It parses the
//! structure first, unhashed, and then makes one pass over the payload
//! that advances the trailer hash, the WORDS CRC, the residue decode and
//! the content hash together ([`DiskDb::from_bytes`]). What it *reports*
//! is still ordered by trust: magic, version, the trailer hash, the
//! layout, each section CRC in table order, and only then anything the
//! parsed structure or the residues revealed, so a flipped bit is named
//! as a checksum failure and never as whatever nonsense it decoded to.
//!
//! [`DiskDbWriter`], the one serializer, writes through the same
//! tmp-then-rename discipline as checkpoints, so a crash mid-write never
//! leaves a torn file at the target path; a writer that fails or is
//! dropped before the rename removes every temporary it created.

use crate::pack::{packed_words, unpack_slot, unpack_word, words_for, PackedDb, RESIDUES_PER_WORD};
use crate::seq::{DigitalSeq, SeqDb};
use crate::source::Chunker;
use h3w_hmm::alphabet::{N_DEGENERATE, N_STANDARD, PAD_CODE};
use std::convert::Infallible;
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
/// Position of the WORDS row in the section table.
const WORDS: usize = 3;

/// Longest string the format's `u16` length prefix can carry, in bytes.
const MAX_STR_BYTES: usize = u16::MAX as usize;

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

/// Byte the content hash absorbs after a sequence's residues (not a
/// residue code, so sequence boundaries cannot shift unnoticed).
const SEQ_END: u8 = 0xff;

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
        self.push_header(name, desc);
        self.h.update(residues);
        self.h.update(&[SEQ_END]);
    }

    /// The part of [`ContentHasher::push_seq`] before the residues, for
    /// the loader, which feeds the residues as it decodes them.
    fn push_header(&mut self, name: &str, desc: &str) {
        self.h.update(name.as_bytes());
        self.h.update(&[0]);
        self.h.update(desc.as_bytes());
        self.h.update(&[0]);
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }
}

/// Words in one block of a loaded database (256 KiB). Whole sequences up
/// to this many words share a block; only a sequence longer than that
/// gets a larger block, alone (the chunk boundary rule of
/// [`crate::source`], counted in words).
const BLOCK_WORDS: usize = 1 << 16;

/// Bytes before the first section payload: magic, version, section count,
/// reserved field, content hash, and the five `(id, len, crc)` table rows.
const TABLE_END: usize = 28 + 16 * 5;

/// A validated, loaded packed database: the device-ready word image, in
/// blocks of whole sequences, plus the per-sequence headers needed to
/// report hits. Read-only by construction — wrap it in an `Arc` to share
/// across service workers.
///
/// [`DiskDb::to_seqdb`] and [`DiskDb::shards`] consume it and free each
/// block as soon as its sequences are decoded, so a decode never holds
/// the whole word image beside the whole decoded database.
#[derive(Debug, Clone)]
pub struct DiskDb {
    /// Database label (`dbgen`'s spec name).
    pub name: String,
    /// Per-sequence `(name, desc)` headers, database order.
    pub headers: Vec<(String, String)>,
    /// Total real residues (from META, cross-checked against INDEX).
    pub total_residues: u64,
    /// Logical content hash (see [`content_hash`]).
    pub content_hash: u64,
    /// Power-of-two length histogram.
    pub bins: Vec<LengthBin>,
    /// The packed words, laid out as [`PackedDb::from_db`] lays out the
    /// original database, cut between sequences into blocks of at most
    /// [`BLOCK_WORDS`] words (see its doc for the one exception).
    blocks: Vec<Block>,
}

/// A run of whole sequences of a [`DiskDb`]; offsets count from the
/// block's own first word.
#[derive(Debug, Clone)]
struct Block {
    /// Index of the block's first sequence in the database.
    first: usize,
    packed: PackedDb,
}

impl DiskDb {
    /// Number of sequences.
    pub fn n_seqs(&self) -> usize {
        self.headers.len()
    }

    /// Parse and validate a `.h3wdb` byte image. Every failure mode —
    /// truncation, bit flips, version skew, inconsistent indices — is a
    /// typed [`DbFormatError`]; this function never panics on any input.
    ///
    /// This is [`DiskDb::load`]'s parser run over a slice: one streaming
    /// pass, front to back, that holds no more of the input than the
    /// section it is in. The header and section table are read first and
    /// checked against the input's length before anything is allocated
    /// for a section. META, NAMES and INDEX are read and cross-checked
    /// (counts, tiling, totals) with no hashing beyond their own. WORDS
    /// then streams through one reused buffer into blocks of whole
    /// sequences, and each block is walked once: the whole-file hash, the
    /// section CRC, the residue decode with its code and pad checks, and
    /// the content hash advance together, because each of those alone is
    /// a byte-serial dependency chain that leaves the core idle. When the
    /// structure before WORDS is unsound there is nothing to decode, and
    /// the rest of the file is only hashed.
    ///
    /// A damaged file is still judged in the order a trusting reader
    /// would meet the damage (magic, version, file hash, layout, section
    /// CRCs in table order, then structure, residues, content hash), so
    /// whatever the pass found is held back until the checksums above it
    /// have passed.
    pub fn from_bytes(bytes: &[u8]) -> Result<DiskDb, DbFormatError> {
        DiskDb::read_from(bytes, bytes.len(), Path::new(""))
    }

    /// Load and validate a `.h3wdb` file in one streaming pass (see
    /// [`DiskDb::from_bytes`]): the file image is never held whole. A
    /// file that ends before the size it had when opened is
    /// [`DbFormatError::Truncated`]. A non-regular file (a pipe, say) has
    /// no size up front, so it is read whole and parsed as a slice.
    pub fn load(path: &Path) -> Result<DiskDb, DbFormatError> {
        let io = |e: std::io::Error| DbFormatError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        let mut file = std::fs::File::open(path).map_err(io)?;
        let meta = file.metadata().map_err(io)?;
        if !meta.is_file() {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes).map_err(io)?;
            return DiskDb::from_bytes(&bytes);
        }
        let total = usize::try_from(meta.len()).map_err(|_| DbFormatError::Io {
            path: path.display().to_string(),
            msg: format!(
                "{} bytes do not fit this platform's address space",
                meta.len()
            ),
        })?;
        DiskDb::read_from(file, total, path)
    }

    /// The one loader body behind [`DiskDb::from_bytes`] and
    /// [`DiskDb::load`]: parse the `total` bytes `r` yields.
    fn read_from(r: impl Read, total: usize, path: &Path) -> Result<DiskDb, DbFormatError> {
        let mut input = Input {
            r,
            path,
            total,
            pos: 0,
        };
        let mut head = vec![0; total.min(12)];
        input.fill(&mut head)?;
        let mut c = Cursor::new(&head);
        if c.take(8)? != DISKDB_MAGIC {
            return Err(DbFormatError::BadMagic);
        }
        let version = c.u32()?;
        if version != DISKDB_VERSION {
            return Err(DbFormatError::Version { found: version });
        }
        // Twelve bytes in, so the body (all but the 8-byte trailer) holds
        // at least four. Read on through the section table; only a body
        // shorter than twelve bytes leaves trailer bytes in `head`.
        let body_len = total - 8;
        head.resize(body_len.clamp(12, TABLE_END).min(total), 0);
        input.fill(&mut head[12..])?;
        let (body_head, trailer_head) = head.split_at(body_len.min(head.len()));
        let mut file = Fnv::new();
        file.update(body_head);

        let table = match SectionTable::parse(body_head, body_len) {
            Ok(table) => table,
            Err(layout) => {
                input.skip(body_len - body_head.len(), |b| file.update(b))?;
                input.trailer_verdict(trailer_head, &file)?;
                return Err(layout);
            }
        };
        let [meta_len, names_len, index_len, words_len, lenbins_len] = table.lens;
        let meta = input.section(meta_len, &mut file)?;
        let names = input.section(names_len, &mut file)?;
        let index = input.section(index_len, &mut file)?;
        let count = input.section(words_len.min(4), &mut file)?;
        let mut crcs = [crc32(&meta), crc32(&names), crc32(&index), 0, 0];
        let mut words_crc = Crc32::new();
        words_crc.update(&count);
        let structure = Structure::parse(&meta, &names, &index, &count, words_len);
        drop((meta, names, index));

        // The rest of WORDS: decoded into blocks when the structure is
        // sound, otherwise there is no tiling to walk and only the
        // checksums are wanted.
        let walked = match structure {
            Ok(s) => {
                let (blocks, residues) = s.read_blocks(&mut input, &mut file, &mut words_crc)?;
                Ok((s, blocks, residues))
            }
            Err(e) => {
                input.skip(words_len - count.len(), |b| {
                    file.update(b);
                    words_crc.update(b);
                })?;
                Err(e)
            }
        };
        crcs[WORDS] = words_crc.finish();
        let lenbins = input.section(lenbins_len, &mut file)?;
        crcs[WORDS + 1] = crc32(&lenbins);
        input.trailer_verdict(&[], &file)?;

        for (i, (&found, &crc)) in crcs.iter().zip(&table.crcs).enumerate() {
            if found != crc {
                return Err(DbFormatError::SectionCrc {
                    section: SECTION_NAMES[i],
                });
            }
        }
        let (s, blocks, residues) = walked?;
        // LENBINS follows WORDS in the file, so its check is the last of
        // the structure's, but it still outranks the residues.
        let bins = parse_bins(&lenbins, s.headers.len())?;
        // Recomputed from the decode, not trusted: this ties the header's
        // logical hash to the payload.
        let recomputed = residues?;
        let logical_hash = table.content_hash;
        if recomputed != logical_hash {
            return Err(DbFormatError::Corrupt(format!(
                "header content hash {logical_hash:016x} but decoded content hashes to {recomputed:016x}"
            )));
        }
        Ok(DiskDb {
            name: s.db_name,
            headers: s.headers,
            total_residues: s.total_residues,
            content_hash: logical_hash,
            bins,
            blocks,
        })
    }

    /// Unpack into an in-memory [`SeqDb`], freeing each block of packed
    /// words as soon as its sequences are decoded; headers are moved, not
    /// copied. Round-trips exactly: loading what [`DiskDbWriter`] wrote of
    /// a database and calling `to_seqdb` gives that database back.
    pub fn to_seqdb(self) -> SeqDb {
        let mut seqs = Vec::with_capacity(self.n_seqs());
        let DiskDb {
            name,
            headers,
            blocks,
            ..
        } = self;
        seqs.extend(DiskDb::into_seqs(headers, blocks));
        SeqDb { name, seqs }
    }

    /// Every sequence in database order, decoded block by block; each
    /// block is dropped once its last sequence is out.
    fn into_seqs(
        headers: Vec<(String, String)>,
        blocks: Vec<Block>,
    ) -> impl Iterator<Item = DigitalSeq> {
        let mut headers = headers.into_iter();
        blocks.into_iter().flat_map(move |block| {
            let seqs: Vec<DigitalSeq> = headers
                .by_ref()
                .take(block.packed.n_seqs())
                .enumerate()
                .map(|(i, (name, desc))| DigitalSeq {
                    name,
                    desc,
                    residues: block.packed.unpack_seq(i),
                })
                .collect();
            seqs
        })
    }

    /// Every sequence in database order, decoded one at a time from the
    /// blocks, which stay packed.
    pub(crate) fn seqs(&self) -> impl Iterator<Item = DigitalSeq> + '_ {
        self.blocks.iter().flat_map(move |block| {
            let view = block.packed.view();
            let headers = &self.headers[block.first..block.first + view.n_seqs()];
            headers
                .iter()
                .enumerate()
                .map(move |(i, (name, desc))| DigitalSeq {
                    name: name.clone(),
                    desc: desc.clone(),
                    residues: view.unpack_seq(i),
                })
        })
    }

    /// Split into read-only shards of at most `max_residues` residues
    /// each, under the chunk boundary rule of [`crate::source`] (whole
    /// sequences; only a single sequence longer than the cap may form an
    /// oversized shard, alone). Consumes the database and frees its packed
    /// words block by block. Shard boundaries are where a resident service
    /// checks query deadlines, so the bound also caps deadline latency.
    ///
    /// # Panics
    ///
    /// If `max_residues` is zero.
    pub fn shards(self, max_residues: u64) -> Vec<SeqDb> {
        let seqs = DiskDb::into_seqs(self.headers, self.blocks).map(Ok::<_, Infallible>);
        Chunker::new(&self.name, seqs, max_residues)
            .flatten()
            .collect()
    }
}

/// The bytes of a `.h3wdb` as the loader meets them: `total` of them,
/// known up front (a slice's length, a file's size), read once, in order.
struct Input<'p, R> {
    r: R,
    /// Named in I/O errors.
    path: &'p Path,
    total: usize,
    /// Bytes read so far.
    pos: usize,
}

impl<R: Read> Input<'_, R> {
    /// Fill `buf` from the next bytes. Input that ends before `total`
    /// (a file cut short while it is read) is a truncation, whatever the
    /// parse has seen so far.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), DbFormatError> {
        let mut got = 0;
        while got < buf.len() {
            match self.r.read(&mut buf[got..]) {
                Ok(0) => {
                    return Err(DbFormatError::Truncated {
                        needed: self.total,
                        have: self.pos + got,
                    })
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(DbFormatError::Io {
                        path: self.path.display().to_string(),
                        msg: e.to_string(),
                    })
                }
            }
        }
        self.pos += got;
        Ok(())
    }

    /// The next `len` bytes, a section payload, absorbed into the file
    /// hash. `len` passed the section table's check against `total`.
    fn section(&mut self, len: usize, file: &mut Fnv) -> Result<Vec<u8>, DbFormatError> {
        let mut payload = vec![0; len];
        self.fill(&mut payload)?;
        file.update(&payload);
        Ok(payload)
    }

    /// Pass the next `len` bytes through `f` in pieces of at most one
    /// block, keeping none of them.
    fn skip(&mut self, mut len: usize, mut f: impl FnMut(&[u8])) -> Result<(), DbFormatError> {
        let mut buf = vec![0; len.min(4 * BLOCK_WORDS)];
        while len > 0 {
            let piece = &mut buf[..len.min(4 * BLOCK_WORDS)];
            self.fill(piece)?;
            f(piece);
            len -= piece.len();
        }
        Ok(())
    }

    /// Read the rest of the 8-byte trailer (`head` is what of it was
    /// already read) and check the whole-file hash against it.
    fn trailer_verdict(&mut self, head: &[u8], file: &Fnv) -> Result<(), DbFormatError> {
        let mut trailer = [0; 8];
        let (got, rest) = trailer.split_at_mut(head.len());
        got.copy_from_slice(head);
        self.fill(rest)?;
        let (expected, found) = (u64::from_le_bytes(trailer), file.finish());
        if expected != found {
            return Err(DbFormatError::FileHash { expected, found });
        }
        Ok(())
    }
}

/// The fixed header and section table of a file, read without hashing:
/// each section's length and the checksum it must match.
struct SectionTable {
    /// Logical content hash recorded in the header.
    content_hash: u64,
    /// Payload length of each section, table order.
    lens: [usize; 5],
    /// CRC-32 the table records for each section.
    crcs: [u32; 5],
}

impl SectionTable {
    /// `head` is the start of the body (the file without its 8-byte
    /// trailer), through the table or to the end of a shorter body;
    /// `body_len` is the whole body's length.
    fn parse(head: &[u8], body_len: usize) -> Result<SectionTable, DbFormatError> {
        let mut c = Cursor::new(head);
        c.take(8)?; // magic, checked by the caller
        c.u32()?; // version, likewise
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
        let content_hash = c.u64()?;
        let mut lens = [0usize; 5];
        let mut crcs = [0u32; 5];
        for (i, &id) in SECTION_IDS.iter().enumerate() {
            let found_id = c.u32()?;
            if found_id != id {
                return Err(DbFormatError::Layout(format!(
                    "section {i} has id {found_id}, expected {id} ({})",
                    SECTION_NAMES[i]
                )));
            }
            let len = c.u64()?;
            crcs[i] = c.u32()?;
            if len > body_len as u64 {
                return Err(DbFormatError::Layout(format!(
                    "section {} claims {len} bytes in a {}-byte file",
                    SECTION_NAMES[i],
                    body_len + 8
                )));
            }
            lens[i] = len as usize;
        }
        let payload_total: usize = lens.iter().sum();
        let have = body_len - c.pos;
        if have != payload_total {
            return Err(DbFormatError::Layout(format!(
                "section table claims {payload_total} payload bytes, file holds {have}"
            )));
        }
        Ok(SectionTable {
            content_hash,
            lens,
            crcs,
        })
    }
}

/// Everything a file says about its database before WORDS apart from the
/// checksums: parsed and cross-checked (counts, tiling, totals), nothing
/// yet verified against a hash.
struct Structure {
    db_name: String,
    headers: Vec<(String, String)>,
    lengths: Vec<u32>,
    total_residues: u64,
}

impl Structure {
    /// `count` is the head of WORDS (its word count, or what there is of
    /// it) and `words_len` the length the table gives the section.
    fn parse(
        meta: &[u8],
        names: &[u8],
        index: &[u8],
        count: &[u8],
        words_len: usize,
    ) -> Result<Structure, DbFormatError> {
        let mut m = Cursor::new(meta);
        let db_name = m.str16()?;
        let n_seqs = m.u32()? as usize;
        let total_residues = m.u64()?;
        m.end("META")?;

        // `n_seqs` sizes two allocations below, and a checksum is no
        // proof of origin: hold it to what the sections can contain (8
        // INDEX bytes and at least two NAMES length prefixes a sequence).
        if index.len() as u64 != 8 * n_seqs as u64 {
            return Err(DbFormatError::Corrupt(format!(
                "META says {n_seqs} sequences but INDEX holds {} bytes, not {}",
                index.len(),
                8 * n_seqs as u64
            )));
        }
        if (names.len() as u64) < 4 * n_seqs as u64 {
            return Err(DbFormatError::Corrupt(format!(
                "META says {n_seqs} sequences but NAMES holds only {} bytes",
                names.len()
            )));
        }

        let mut n = Cursor::new(names);
        let mut headers = Vec::with_capacity(n_seqs);
        for _ in 0..n_seqs {
            let name = n.str16()?;
            let desc = n.str16()?;
            headers.push((name, desc));
        }
        n.end("NAMES")?;

        let n_words = Cursor::new(count).u32()? as usize;
        if words_len as u64 != 4 + 4 * n_words as u64 {
            return Err(DbFormatError::Corrupt(format!(
                "WORDS claims {n_words} words but section holds {words_len} bytes"
            )));
        }

        // Cross-checks: offsets/lengths must tile the word buffer exactly
        // in database order, and the residue total must match META. INDEX
        // holds exactly `n_seqs` rows (checked above).
        let mut rows = Cursor::new(index);
        let mut lengths = Vec::with_capacity(n_seqs);
        let mut expect_off = 0u64;
        let mut residue_total = 0u64;
        for i in 0..n_seqs {
            let (len, off) = (rows.u32()?, rows.u32()?);
            if off as u64 != expect_off {
                return Err(DbFormatError::Corrupt(format!(
                    "sequence {i} at word offset {off}, expected {expect_off}"
                )));
            }
            expect_off += words_for(len as usize) as u64;
            residue_total += len as u64;
            lengths.push(len);
        }
        if expect_off != n_words as u64 {
            return Err(DbFormatError::Corrupt(format!(
                "index tiles {expect_off} words, WORDS holds {n_words}"
            )));
        }
        if residue_total != total_residues {
            return Err(DbFormatError::Corrupt(format!(
                "META says {total_residues} residues, index sums to {residue_total}"
            )));
        }
        Ok(Structure {
            db_name,
            headers,
            lengths,
            total_residues,
        })
    }

    /// Read the words after WORDS' count into blocks of whole sequences
    /// (the tiling check sized each one), through one reused byte buffer,
    /// and walk each block once, sequence by sequence and word by word:
    /// the file hash and the section CRC advance over each word's bytes
    /// and the content hash over its decoded residues, so the three serial
    /// chains overlap. Beside the blocks, returns the recomputed content
    /// hash, or the first slot (sequence order; real residues before pads)
    /// that holds a code no score table was built for: a real slot outside
    /// the alphabet or a pad slot that is not `PAD_CODE`.
    fn read_blocks<R: Read>(
        &self,
        input: &mut Input<'_, R>,
        file: &mut Fnv,
        crc: &mut Crc32,
    ) -> Result<(Vec<Block>, Result<u64, DbFormatError>), DbFormatError> {
        let mut content = ContentHasher::new(&self.db_name);
        let mut finding = None;
        let mut blocks = Vec::new();
        let mut bytes = Vec::new();
        let mut first = 0;
        while first < self.lengths.len() {
            let end = block_end(&self.lengths, first);
            let lengths = self.lengths[first..end].to_vec();
            let n_words = lengths
                .iter()
                .map(|&len| words_for(len as usize))
                .sum::<usize>();
            bytes.resize(4 * n_words, 0);
            input.fill(&mut bytes)?;
            let words: Vec<u32> = bytes
                .as_chunks()
                .0
                .iter()
                .map(|&b| u32::from_le_bytes(b))
                .collect();

            let mut offsets = Vec::with_capacity(lengths.len());
            let mut rest = &words[..];
            let headers = &self.headers[first..end];
            for (k, ((name, desc), &len)) in headers.iter().zip(&lengths).enumerate() {
                offsets.push((words.len() - rest.len()) as u32);
                let len = len as usize;
                // In range: the block was sized from these lengths.
                let (seq, after) = rest.split_at(words_for(len));
                rest = after;
                content.push_header(name, desc);
                let (full, last) = seq.split_at(len / RESIDUES_PER_WORD);
                let (mut f, mut c, mut h) = (file.0, crc.0, content.h.0);
                let mut suspect = false;
                for &w in full {
                    f = fnv_word(f, w);
                    c = crc_word(c, w);
                    for r in unpack_word(w) {
                        suspect |= r >= MAX_RESIDUE_CODE;
                        h = fnv_step(h, r);
                    }
                }
                // The partly padded word (wholly, for an empty sequence).
                if let Some(&w) = last.first() {
                    f = fnv_word(f, w);
                    c = crc_word(c, w);
                    let slots = unpack_word(w);
                    let (real, pad) = slots.split_at(len % RESIDUES_PER_WORD);
                    for &r in real {
                        suspect |= r >= MAX_RESIDUE_CODE;
                        h = fnv_step(h, r);
                    }
                    suspect |= pad.iter().any(|&r| r != PAD_CODE);
                }
                (file.0, crc.0, content.h.0) = (f, c, fnv_step(h, SEQ_END));
                if suspect && finding.is_none() {
                    finding = bad_slot(first + k, seq, len);
                }
            }
            blocks.push(Block {
                first,
                packed: PackedDb {
                    words,
                    offsets,
                    lengths,
                },
            });
            first = end;
        }
        let residues = match finding {
            Some(e) => Err(e),
            None => Ok(content.finish()),
        };
        Ok((blocks, residues))
    }
}

/// The end of the block that starts at sequence `first`: whole sequences
/// while they fit in [`BLOCK_WORDS`] words, and always at least one.
fn block_end(lengths: &[u32], first: usize) -> usize {
    let mut words = 0;
    let mut end = first;
    for &len in &lengths[first..] {
        let seq_words = words_for(len as usize);
        if end > first && words + seq_words > BLOCK_WORDS {
            break;
        }
        words += seq_words;
        end += 1;
    }
    end
}

/// The LENBINS payload, which must count `n_seqs` sequences in all.
fn parse_bins(lenbins: &[u8], n_seqs: usize) -> Result<Vec<LengthBin>, DbFormatError> {
    let mut lb = Cursor::new(lenbins);
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
    Ok(bins)
}

/// The first offending slot of one sequence's words, as the diagnostic:
/// real residues first, then the pad slots of the last word.
#[cold]
fn bad_slot(seqid: usize, seq: &[u32], len: usize) -> Option<DbFormatError> {
    for slot in 0..seq.len() * RESIDUES_PER_WORD {
        let code = unpack_slot(seq[slot / RESIDUES_PER_WORD], slot % RESIDUES_PER_WORD);
        if slot < len && code >= MAX_RESIDUE_CODE {
            return Some(DbFormatError::Corrupt(format!(
                "sequence {seqid} residue {slot} has invalid code {code}"
            )));
        }
        if slot >= len && code != PAD_CODE {
            return Some(DbFormatError::Corrupt(format!(
                "sequence {seqid} pad slot {slot} holds code {code}"
            )));
        }
    }
    None
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
/// renames it into place atomically. Every temporary file is removed on
/// every path: a failed `create` or `finish`, and a writer dropped
/// before `finish`.
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
    /// Serialization buffer reused by every `push`.
    scratch: Vec<u8>,
}

/// `path` with `suffix` appended to its whole file name, so two targets
/// in one directory never share a temporary (`db.a` and `db.b` would
/// under `with_extension`). A `*.h3wdb` target keeps the names
/// `*.h3wdb.tmp`, `*.h3wdb.names.tmp` and so on.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

/// A temporary file the writer created, removed when dropped.
struct TempPath(PathBuf);

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One payload spilled to a temporary file, with its CRC and length
/// tracked as bytes go out. The file is closed before it is removed
/// (fields drop in declaration order).
struct SectionSpill {
    w: BufWriter<std::fs::File>,
    path: TempPath,
    crc: Crc32,
    len: u64,
}

impl SectionSpill {
    fn create(path: PathBuf) -> std::io::Result<SectionSpill> {
        let file = std::fs::File::create(&path)?;
        Ok(SectionSpill {
            path: TempPath(path),
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
        check_str16(db_name, || "database label".into())?;
        let spill = |suffix: &str| -> Result<SectionSpill, DbFormatError> {
            SectionSpill::create(with_suffix(path, suffix)).map_err(io)
        };
        Ok(DiskDbWriter {
            path: path.to_path_buf(),
            db_name: db_name.to_string(),
            names: spill(".names.tmp")?,
            index: spill(".index.tmp")?,
            words: spill(".words.tmp")?,
            n_seqs: 0,
            total_residues: 0,
            word_off: 0,
            content: ContentHasher::new(db_name),
            bin_counts: [0u32; 32],
            scratch: Vec::new(),
        })
    }

    /// Append one sequence (database order). A name or description the
    /// format cannot record (over 65,535 bytes) is an error and leaves
    /// the writer as it was.
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
        check_seq_strings(self.n_seqs, seq)?;
        let buf = &mut self.scratch;
        buf.clear();
        put_str16(buf, &seq.name);
        put_str16(buf, &seq.desc);
        self.names.put(buf).map_err(io)?;

        buf.clear();
        put_u32(buf, seq.len() as u32);
        put_u32(buf, self.word_off);
        self.index.put(buf).map_err(io)?;

        buf.clear();
        let n_words = put_packed(buf, &seq.residues);
        self.words.put(buf).map_err(io)?;
        self.word_off = self.word_off.checked_add(n_words).ok_or_else(|| {
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
    /// FNV trailer, and rename into place. Removes the temporaries, also
    /// when it fails.
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
            scratch: _,
        } = self;

        let mut meta = Vec::new();
        put_str16(&mut meta, &db_name);
        put_u32(&mut meta, n_seqs as u32);
        put_u64(&mut meta, total_residues);

        let mut lenbins = Vec::new();
        put_bins(&mut lenbins, &bins_from_counts(&bin_counts));

        // Close the spills and collect (path, len, crc) per section.
        let close = |s: SectionSpill| -> Result<(TempPath, u64, Crc32), DbFormatError> {
            let SectionSpill {
                path: p,
                w,
                crc,
                len,
            } = s;
            w.into_inner().map_err(|e| DbFormatError::Io {
                path: p.0.display().to_string(),
                msg: e.to_string(),
            })?;
            Ok((p, len, crc))
        };
        let (names_p, names_len, names_crc) = close(names)?;
        let (index_p, index_len, index_crc) = close(index)?;
        let (words_p, words_len, words_body_crc) = close(words)?;
        // The WORDS payload starts with a word count that is only known
        // now. CRCs concatenate, so the checksum taken as the words were
        // spilled is joined to the prefix's instead of reading them back.
        let words_prefix = word_off.to_le_bytes();
        let mut words_crc = Crc32::new();
        words_crc.update(&words_prefix);
        let words_crc = words_crc.followed_by(&words_body_crc, words_len);

        // Header + section table, then payloads, all through one FNV so
        // the trailer covers every preceding byte.
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

        let final_tmp = TempPath(with_suffix(&path, ".tmp"));
        {
            let file = std::fs::File::create(&final_tmp.0).map_err(io)?;
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
                stream_file(&p.0, |chunk| {
                    if res.is_ok() {
                        res = put(&mut out, &mut fnv, chunk);
                    }
                })
                .map_err(io)?;
                res.map_err(io)?;
            }
            put(&mut out, &mut fnv, &words_prefix).map_err(io)?;
            let mut res = Ok(());
            stream_file(&words_p.0, |chunk| {
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
        std::fs::rename(&final_tmp.0, &path).map_err(io)?;
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

/// `s` must have passed [`check_str16`].
fn put_str16(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_STR_BYTES);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append the packed words of one sequence, little-endian; returns how
/// many there were.
fn put_packed(out: &mut Vec<u8>, residues: &[u8]) -> u32 {
    out.extend(packed_words(residues).flat_map(u32::to_le_bytes));
    words_for(residues.len()) as u32
}

/// Append the LENBINS payload.
fn put_bins(out: &mut Vec<u8>, bins: &[LengthBin]) {
    put_u32(out, bins.len() as u32);
    for b in bins {
        put_u32(out, b.min_len);
        put_u32(out, b.max_len);
        put_u32(out, b.count);
    }
}

/// A string the `u16` length prefix cannot record is refused, never cut:
/// the content hash absorbs the whole string, so a file holding a prefix
/// of it would fail its own loader (and the cut could split a UTF-8
/// sequence).
fn check_str16(s: &str, what: impl FnOnce() -> String) -> Result<(), DbFormatError> {
    if s.len() <= MAX_STR_BYTES {
        return Ok(());
    }
    Err(DbFormatError::Corrupt(format!(
        "{} is {} bytes long, the format stores at most {MAX_STR_BYTES}",
        what(),
        s.len()
    )))
}

/// [`check_str16`] for the name and description of sequence `seqid`.
fn check_seq_strings(seqid: usize, seq: &DigitalSeq) -> Result<(), DbFormatError> {
    let name = &seq.name;
    check_str16(name, || format!("name of sequence {seqid} ({name:.32}...)"))?;
    check_str16(&seq.desc, || {
        format!("description of sequence {seqid} ({name:.32})")
    })
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

    /// The next `N` bytes, by value.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DbFormatError> {
        let at = self.pos;
        self.take(N)?
            .first_chunk()
            .copied()
            .ok_or(DbFormatError::Truncated {
                needed: at + N,
                have: self.bytes.len(),
            })
    }

    fn u16(&mut self) -> Result<u16, DbFormatError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    fn u32(&mut self) -> Result<u32, DbFormatError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Result<u64, DbFormatError> {
        Ok(u64::from_le_bytes(self.take_array()?))
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

/// The CRC-32 generator polynomial (IEEE 802.3), reflected.
const CRC_POLY: u32 = 0xedb8_8320;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
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

/// Slice-by-8 tables: `CRC_SLICES[k][b]` is the CRC register after byte
/// `b` and then `k` zero bytes, so eight input bytes are eight independent
/// lookups XORed together instead of eight dependent ones.
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut t = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = CRC_TABLE[(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advance a raw CRC register over the four little-endian bytes of `w`.
#[inline(always)]
fn crc_word(c: u32, w: u32) -> u32 {
    let x = c ^ w;
    CRC_SLICES[3][(x & 0xff) as usize]
        ^ CRC_SLICES[2][(x >> 8 & 0xff) as usize]
        ^ CRC_SLICES[1][(x >> 16 & 0xff) as usize]
        ^ CRC_SLICES[0][(x >> 24) as usize]
}

/// `a · b mod P` in GF(2)[x], P the CRC polynomial, reflected bit order
/// (bit 31 is the coefficient of x⁰).
fn crc_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            CRC_POLY ^ (b >> 1)
        } else {
            b >> 1
        };
        bit >>= 1;
    }
    product
}

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
        let mut c = self.0;
        let mut eights = bytes.chunks_exact(8);
        for e in &mut eights {
            let lo = c ^ u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
            c = CRC_SLICES[7][(lo & 0xff) as usize]
                ^ CRC_SLICES[6][(lo >> 8 & 0xff) as usize]
                ^ CRC_SLICES[5][(lo >> 16 & 0xff) as usize]
                ^ CRC_SLICES[4][(lo >> 24) as usize]
                ^ CRC_SLICES[3][e[4] as usize]
                ^ CRC_SLICES[2][e[5] as usize]
                ^ CRC_SLICES[1][e[6] as usize]
                ^ CRC_SLICES[0][e[7] as usize];
        }
        for &b in eights.remainder() {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The CRC of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xffff_ffff
    }

    /// The state after absorbing, on top of what `self` has absorbed,
    /// `len` more bytes that `tail` absorbed from a fresh state: the CRC
    /// of a concatenation from the CRCs of its parts. `crc(A)` shifted
    /// past `len` bytes is `crc(A) · x^(8·len) mod P`, by squaring.
    fn followed_by(&self, tail: &Crc32, len: u64) -> Crc32 {
        let mut shift = 1u32 << 31; // x^0
        let mut power = 1u32 << 23; // x^8: one byte
        let mut n = len;
        while n != 0 {
            if n & 1 != 0 {
                shift = crc_mul(shift, power);
            }
            power = crc_mul(power, power);
            n >>= 1;
        }
        Crc32(crc_mul(shift, self.finish()) ^ tail.0)
    }
}

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step.
#[inline(always)]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Advance an FNV-1a state over the four little-endian bytes of `w`.
#[inline(always)]
fn fnv_word(h: u64, w: u32) -> u64 {
    w.to_le_bytes().into_iter().fold(h, fnv_step)
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
        self.0 = bytes.iter().copied().fold(self.0, fnv_step);
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen::{generate, DbGenSpec};
    use crate::source::SeqSource;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample_db() -> SeqDb {
        let mut spec = DbGenSpec::swissprot_like().scaled(2e-4);
        spec.homolog_fraction = 0.0;
        generate(&spec, None, 11)
    }

    /// Write `db` through [`DiskDbWriter`], the one serializer.
    pub(crate) fn write_db(db: &SeqDb, path: &Path) -> Result<DiskDbSummary, DbFormatError> {
        let mut w = DiskDbWriter::create(path, &db.name)?;
        for s in &db.seqs {
            w.push(s)?;
        }
        w.finish()
    }

    /// The `.h3wdb` image [`DiskDbWriter`] writes for `db`, through a
    /// temporary file of its own.
    pub(super) fn image(db: &SeqDb) -> Vec<u8> {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "h3w-image-{}-{}.h3wdb",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        write_db(db, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    /// Offset of the section table in a file: magic + version +
    /// n_sections + reserved + content hash.
    pub(super) const TABLE_AT: usize = 28;

    /// The blocks of a loaded database joined back into one word image:
    /// `(words, offsets, lengths)` as [`PackedDb::from_db`] lays them out.
    pub(super) fn flat_image(db: &DiskDb) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (mut words, mut offsets, mut lengths) = (Vec::new(), Vec::new(), Vec::new());
        for block in &db.blocks {
            let base = words.len() as u32;
            words.extend(&block.packed.words);
            offsets.extend(block.packed.offsets.iter().map(|&off| base + off));
            lengths.extend(&block.packed.lengths);
        }
        (words, offsets, lengths)
    }

    /// Where section `i`'s payload lies, going by the file's own table;
    /// `None` when the table does not fit the file.
    pub(super) fn section_span(bytes: &[u8], i: usize) -> Option<std::ops::Range<usize>> {
        let len_of = |k: usize| {
            let at = TABLE_AT + 16 * k + 4;
            let len = u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().unwrap());
            usize::try_from(len).ok()
        };
        let mut start = TABLE_AT + 16 * SECTION_IDS.len();
        for k in 0..i {
            start = start.checked_add(len_of(k)?)?;
        }
        let end = start.checked_add(len_of(i)?)?;
        (end <= bytes.len().checked_sub(8)?).then_some(start..end)
    }

    /// Re-seal a tampered file: recompute every section CRC the table can
    /// still locate, then the trailer. Neither checksum is cryptographic,
    /// so this is what a hostile or buggy writer produces, and it is the
    /// only way past the file hash to the loader's structural checks.
    pub(super) fn reseal(bytes: &mut [u8]) {
        for i in 0..SECTION_IDS.len() {
            if let Some(span) = section_span(bytes, i) {
                let crc = crc32(&bytes[span]);
                let at = TABLE_AT + 16 * i + 12;
                bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
            }
        }
        reseal_trailer(bytes);
    }

    /// Recompute the whole-file trailer only.
    pub(super) fn reseal_trailer(bytes: &mut [u8]) {
        if let Some(body) = bytes.len().checked_sub(8) {
            let trailer = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&trailer.to_le_bytes());
        }
    }

    /// The definition: one table lookup per byte.
    fn crc32_bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |c, &b| {
            CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8)
        })
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(crc32(b"abc"), 0x3524_41c2);
        assert_eq!(crc32(b"message digest"), 0x2015_9d7f);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop_at_every_length_alignment_and_split() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let piece = &data[start..start + len];
                let want = crc32_bytewise(0xffff_ffff, piece) ^ 0xffff_ffff;
                assert_eq!(crc32(piece), want, "start {start} len {len}");
                for split in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&piece[..split]);
                    c.update(&piece[split..]);
                    assert_eq!(c.finish(), want, "start {start} len {len} split {split}");
                }
                // The loader's word step is the same function of the same bytes.
                if len % 4 == 0 {
                    let by_words = piece.chunks_exact(4).fold(0xffff_ffff, |c, w| {
                        crc_word(c, u32::from_le_bytes(w.try_into().unwrap()))
                    });
                    assert_eq!(by_words ^ 0xffff_ffff, want, "start {start} len {len}");
                    let fnv_by_words = piece.chunks_exact(4).fold(Fnv::new().0, |h, w| {
                        fnv_word(h, u32::from_le_bytes(w.try_into().unwrap()))
                    });
                    assert_eq!(fnv_by_words, fnv1a(piece), "start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn crc32_of_a_concatenation_from_the_crcs_of_its_parts() {
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 131 + 7) as u8).collect();
        for (head, tail) in [
            (0, 0),
            (0, 5),
            (4, 0),
            (4, 1),
            (4, 4),
            (4, 2996),
            (1000, 2000),
        ] {
            let (a, b) = data[..head + tail].split_at(head);
            let mut first = Crc32::new();
            first.update(a);
            let mut second = Crc32::new();
            second.update(b);
            let joined = first.followed_by(&second, b.len() as u64);
            assert_eq!(
                joined.finish(),
                crc32(&data[..head + tail]),
                "{head}+{tail}"
            );
            // Still a live state: more bytes can follow.
            let mut more = joined;
            more.update(&data[head + tail..]);
            assert_eq!(more.finish(), crc32(&data), "{head}+{tail}+rest");
        }
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
        let bytes = image(&db);
        let loaded = DiskDb::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.name, db.name);
        assert_eq!(loaded.n_seqs(), db.len());
        assert_eq!(loaded.total_residues, db.total_residues());
        assert_eq!(loaded.content_hash, content_hash(&db));
        // The packed image matches a direct in-memory packing.
        let direct = PackedDb::from_db(&db);
        let (words, offsets, lengths) = flat_image(&loaded);
        assert_eq!(words, direct.words);
        assert_eq!(offsets, direct.offsets);
        assert_eq!(lengths, direct.lengths);
        let back = loaded.to_seqdb();
        assert_eq!(back.seqs, db.seqs);
    }

    /// A database of the given lengths; residue codes cover the alphabet.
    fn db_of_lengths(lengths: &[usize]) -> SeqDb {
        let mut db = SeqDb::new("blocks");
        for (i, &len) in lengths.iter().enumerate() {
            db.seqs.push(DigitalSeq {
                name: format!("s{i}"),
                desc: if i % 2 == 0 {
                    format!("d{i}")
                } else {
                    String::new()
                },
                residues: (0..len).map(|j| ((i * 5 + j * 3) % 26) as u8).collect(),
            });
        }
        db
    }

    /// Blocks tile the database in order, hold whole sequences, and are
    /// full: each stays within `BLOCK_WORDS` unless it is one oversized
    /// sequence alone, and would overflow with the next sequence.
    fn check_blocks(loaded: &DiskDb) {
        let mut next = 0;
        for (k, block) in loaded.blocks.iter().enumerate() {
            let p = &block.packed;
            assert_eq!(block.first, next, "block {k} starts out of order");
            assert!(p.n_seqs() > 0, "block {k} is empty");
            let mut off = 0u32;
            for (&o, &len) in p.offsets.iter().zip(&p.lengths) {
                assert_eq!(o, off, "block {k} does not tile its words");
                off += words_for(len as usize) as u32;
            }
            assert_eq!(
                off as usize,
                p.words.len(),
                "block {k} holds a partial sequence"
            );
            assert!(
                p.words.len() <= BLOCK_WORDS || p.n_seqs() == 1,
                "block {k}: {} words in {} sequences",
                p.words.len(),
                p.n_seqs()
            );
            if let Some(after) = loaded.blocks.get(k + 1) {
                let next_words = words_for(after.packed.lengths[0] as usize);
                assert!(
                    p.words.len() + next_words > BLOCK_WORDS,
                    "block {k} closed early"
                );
            }
            next += p.n_seqs();
        }
        assert_eq!(next, loaded.n_seqs());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn blocks_tile_the_database_and_every_decode_equals_it(
            shapes in proptest::collection::vec((0usize..40_000, 0u8..32), 0..40),
        ) {
            // Kind 0: longer than a block; 1-3: empty; else as drawn.
            let lengths: Vec<usize> = shapes
                .iter()
                .map(|&(len, kind)| match kind {
                    0 => RESIDUES_PER_WORD * BLOCK_WORDS + len % 13,
                    1..=3 => 0,
                    _ => len,
                })
                .collect();
            let db = db_of_lengths(&lengths);
            let loaded = DiskDb::from_bytes(&image(&db)).unwrap();
            check_blocks(&loaded);
            proptest::prop_assert_eq!(&loaded.seqs().collect::<Vec<_>>(), &db.seqs);
            let cap = 50_000;
            let chunks: Vec<SeqDb> = loaded.chunks(cap).collect::<Result<_, _>>().unwrap();
            let shards = loaded.clone().shards(cap);
            for parts in [&chunks, &shards] {
                for part in parts.iter() {
                    proptest::prop_assert!(part.total_residues() <= cap || part.len() == 1);
                }
                let joined: Vec<DigitalSeq> = parts.iter().flat_map(|p| p.seqs.clone()).collect();
                proptest::prop_assert_eq!(&joined, &db.seqs);
            }
            proptest::prop_assert_eq!(loaded.to_seqdb().seqs, db.seqs);
        }
    }

    #[test]
    fn a_block_holds_exactly_block_words_and_the_next_sequence_starts_another() {
        let fill = RESIDUES_PER_WORD * (BLOCK_WORDS - 1);
        let db = db_of_lengths(&[
            fill,
            RESIDUES_PER_WORD,
            0,
            RESIDUES_PER_WORD * BLOCK_WORDS + 1,
        ]);
        let loaded = DiskDb::from_bytes(&image(&db)).unwrap();
        check_blocks(&loaded);
        let sizes: Vec<usize> = loaded.blocks.iter().map(|b| b.packed.words.len()).collect();
        assert_eq!(sizes, [BLOCK_WORDS, 1, BLOCK_WORDS + 1]);
        assert_eq!(loaded.to_seqdb().seqs, db.seqs);
    }

    #[test]
    fn input_that_ends_before_its_stated_length_is_truncated_never_short() {
        // A file cut short while it is read (truncated under a resident
        // server, say): the loader was promised `len` bytes and must
        // refuse the rest, wherever the cut falls.
        let mut db = sample_db();
        db.seqs.truncate(12);
        let bytes = image(&db);
        for cut in 0..bytes.len() {
            let outcome = DiskDb::read_from(&bytes[..cut], bytes.len(), Path::new("cut"));
            assert_eq!(
                outcome.map(|d| d.n_seqs()),
                Err(DbFormatError::Truncated {
                    needed: bytes.len(),
                    have: cut
                }),
                "cut at {cut}"
            );
        }
        // A file of the full length, but not this one: its own verdict.
        let other = vec![0u8; bytes.len()];
        assert_eq!(
            DiskDb::read_from(&other[..], bytes.len(), Path::new("zeros")).map(|d| d.n_seqs()),
            Err(DbFormatError::BadMagic)
        );
    }

    #[test]
    fn write_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("h3w-diskdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.h3wdb");
        let db = sample_db();
        let summary = write_db(&db, &path).unwrap();
        assert_eq!(summary.n_seqs, db.len());
        assert_eq!(summary.total_residues, db.total_residues());
        assert_eq!(summary.content_hash, content_hash(&db));
        let loaded = DiskDb::load(&path).unwrap();
        assert_eq!(loaded.to_seqdb().seqs, db.seqs);
        // No torn file or spilled section left behind.
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
    fn two_writers_whose_targets_share_a_stem_do_not_collide() {
        let dir = std::env::temp_dir().join(format!("h3w-diskdb-stem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // 1.2 MB of words each, past the spills' 1 MiB buffers, so the
        // writers' bytes interleave on disk while both are open.
        let long = |name: &str, step: usize| {
            let mut db = SeqDb::new(name);
            for i in 0..30 {
                let text: String = (0..60_000)
                    .map(|j| b"ACDEFGHIKLMNPQRSTVWY"[(i + j * step) % 20] as char)
                    .collect();
                let seq = DigitalSeq::from_text(&format!("{name}{i}"), &text).unwrap();
                db.seqs.push(seq);
            }
            db
        };
        let (a, b) = (long("a", 1), long("b", 3));
        let (path_a, path_b) = (dir.join("db.a"), dir.join("db.b"));
        let mut wa = DiskDbWriter::create(&path_a, &a.name).unwrap();
        let mut wb = DiskDbWriter::create(&path_b, &b.name).unwrap();
        for (sa, sb) in a.seqs.iter().zip(&b.seqs) {
            wa.push(sa).unwrap();
            wb.push(sb).unwrap();
        }
        wa.finish().unwrap();
        wb.finish().unwrap();
        for (path, db) in [(&path_a, &a), (&path_b, &b)] {
            let loaded = DiskDb::load(path).unwrap().to_seqdb();
            assert_eq!((&loaded.name, &loaded.seqs), (&db.name, &db.seqs));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_writer_that_stops_short_of_the_rename_leaves_no_temporary() {
        let dir = std::env::temp_dir().join(format!("h3w-diskdb-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.h3wdb");
        let seq = &sample_db().seqs[0];
        let leftovers = || -> Vec<String> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".tmp"))
                .collect()
        };
        // Dropped before `finish`.
        let mut w = DiskDbWriter::create(&path, "db").unwrap();
        w.push(seq).unwrap();
        drop(w);
        assert_eq!(leftovers(), Vec::<String>::new(), "dropped writer");
        // The second spill cannot be created: a directory holds its name.
        let blocker = path.with_extension("h3wdb.index.tmp");
        std::fs::create_dir(&blocker).unwrap();
        assert!(DiskDbWriter::create(&path, "db").is_err());
        std::fs::remove_dir(&blocker).unwrap();
        assert_eq!(leftovers(), Vec::<String>::new(), "failed create");
        // `finish` fails at the rename: a directory holds the target.
        std::fs::create_dir(&path).unwrap();
        let mut w = DiskDbWriter::create(&path, "db").unwrap();
        w.push(seq).unwrap();
        assert!(matches!(w.finish(), Err(DbFormatError::Io { .. })));
        assert_eq!(leftovers(), Vec::<String>::new(), "failed finish");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_in_a_small_file_is_detected() {
        let mut db = SeqDb::new("tiny");
        db.seqs
            .push(DigitalSeq::from_text("s1", "MKVLAYWDE").unwrap());
        db.seqs
            .push(DigitalSeq::from_text("s2", "ACDEFGH").unwrap());
        let bytes = image(&db);
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
        let mut bytes = image(&db);
        let words = section_span(&bytes, WORDS).unwrap();
        assert_eq!(words.len(), 8, "word count + one word");
        bytes[words.start + 7] &= !0x3e; // slot 5 (bits 25..30): PAD_CODE -> 0
        reseal(&mut bytes);
        match DiskDb::from_bytes(&bytes) {
            Err(DbFormatError::Corrupt(msg)) => assert!(msg.contains("pad slot 5"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checksummed_file_with_an_absurd_sequence_count_is_corrupt() {
        // META's `n_seqs` sizes the loader's allocations. Re-sealed around
        // u32::MAX it used to ask for ~206 GB and die in the allocator's
        // abort path, which is not even a panic.
        let mut db = SeqDb::new("count");
        db.seqs.push(DigitalSeq::from_text("s1", "MKVL").unwrap());
        let mut bytes = image(&db);
        let meta = section_span(&bytes, 0).unwrap();
        let n_seqs_at = meta.end - 12; // n_seqs u32, total_residues u64
        assert_eq!(bytes[n_seqs_at..n_seqs_at + 4], 1u32.to_le_bytes());
        for claimed in [u32::MAX, 2, 0] {
            bytes[n_seqs_at..n_seqs_at + 4].copy_from_slice(&claimed.to_le_bytes());
            reseal(&mut bytes);
            match DiskDb::from_bytes(&bytes) {
                Err(DbFormatError::Corrupt(msg)) => {
                    assert!(
                        msg.contains(&format!("META says {claimed} sequences")),
                        "{msg}"
                    );
                    assert!(msg.contains("INDEX holds 8 bytes"), "{msg}");
                }
                other => panic!("n_seqs {claimed}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn checksummed_file_with_too_few_name_bytes_for_its_count_is_corrupt() {
        // INDEX agrees with the count but NAMES cannot hold that many
        // length prefixes: two sequences, NAMES emptied via the table.
        let mut db = SeqDb::new("names");
        db.seqs.push(DigitalSeq::from_text("", "MK").unwrap());
        db.seqs.push(DigitalSeq::from_text("", "VL").unwrap());
        let good = image(&db);
        let names = section_span(&good, 1).unwrap();
        assert_eq!(names.len(), 8, "four empty strings");
        let mut bytes = good[..names.start + 4].to_vec();
        bytes.extend_from_slice(&good[names.end..]);
        let len_at = TABLE_AT + 16 + 4;
        bytes[len_at..len_at + 8].copy_from_slice(&4u64.to_le_bytes());
        reseal(&mut bytes);
        match DiskDb::from_bytes(&bytes) {
            Err(DbFormatError::Corrupt(msg)) => {
                assert!(msg.contains("META says 2 sequences"), "{msg}");
                assert!(msg.contains("NAMES holds only 4 bytes"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A database whose second sequence carries `name` and `desc`.
    fn db_with_strings(name: String, desc: String) -> SeqDb {
        let mut db = SeqDb::new("strings");
        db.seqs.push(DigitalSeq::from_text("ok", "MKVL").unwrap());
        let mut seq = DigitalSeq::from_text("", "ACDE").unwrap();
        (seq.name, seq.desc) = (name, desc);
        db.seqs.push(seq);
        db
    }

    #[test]
    fn strings_the_format_cannot_record_are_refused() {
        // `put_str16` used to cut these at 65,535 bytes (the first inside a
        // UTF-8 sequence) while the content hash absorbed all of them, so
        // the writer sealed files its own loader rejected.
        let dir = std::env::temp_dir().join(format!("h3w-diskdb-str-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.h3wdb");
        let long = ["\u{e9}".repeat(40_000), "a".repeat(70_000)];
        for text in &long {
            for (db, field) in [
                (db_with_strings(text.clone(), String::new()), "name"),
                (db_with_strings("n".into(), text.clone()), "description"),
            ] {
                let expect = |res: Result<(), DbFormatError>| match res {
                    Err(DbFormatError::Corrupt(msg)) => {
                        assert!(msg.contains(&format!("{field} of sequence 1")), "{msg}");
                        assert!(msg.contains(&format!("{} bytes", text.len())), "{msg}");
                    }
                    other => panic!("{field}: unexpected {other:?}"),
                };
                let mut w = DiskDbWriter::create(&path, &db.name).unwrap();
                w.push(&db.seqs[0]).unwrap();
                expect(w.push(&db.seqs[1]));
                // The refused push left the writer as it was.
                let summary = w.finish().unwrap();
                assert_eq!(summary.n_seqs, 1);
                assert_eq!(DiskDb::load(&path).unwrap().to_seqdb().seqs, db.seqs[..1]);
                std::fs::remove_file(&path).unwrap();
            }
        }
        let label = "L".repeat(65_536);
        assert!(matches!(
            DiskDbWriter::create(&path, &label),
            Err(DbFormatError::Corrupt(msg)) if msg.contains("database label is 65536 bytes")
        ));
        // The longest strings the prefix can carry still round-trip.
        let db = db_with_strings("n".repeat(65_535), "\u{e9}".repeat(32_767));
        let loaded = DiskDb::from_bytes(&image(&db)).unwrap();
        assert_eq!(loaded.to_seqdb().seqs, db.seqs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_bytes_and_identities_are_pinned_by_value() {
        // Computed at be2cae8, before the loader and writer were rebuilt:
        // the format, both hash definitions and the identity are unchanged.
        let db = sample_db();
        assert_eq!(db.len(), 92);
        assert_eq!(fnv1a(&image(&db)), 0x3bd0_098c_026c_981d);
        assert_eq!(content_hash(&db), 0x34b8_cec7_7295_b31a);
        let mut spec = DbGenSpec::envnr_like();
        spec.n_seqs = 200;
        spec.homolog_fraction = 0.0;
        let db = generate(&spec, None, 14);
        let bytes = image(&db);
        assert_eq!(bytes.len(), 30_976);
        assert_eq!(fnv1a(&bytes), 0xdd43_a1d0_f69c_8440);
        assert_eq!(crc32(&bytes), 0x1ce8_2438);
        assert_eq!(content_hash(&db), 0xa0d8_ad44_92bd_c87d);
        assert_eq!(
            DiskDb::from_bytes(&bytes).unwrap().content_hash,
            0xa0d8_ad44_92bd_c87d
        );
        assert_eq!(DISKDB_VERSION, 1);
    }

    #[test]
    fn truncations_and_extensions_are_typed_errors() {
        let db = sample_db();
        let bytes = image(&db);
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
        let bytes = image(&db);
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
        let loaded = DiskDb::from_bytes(&image(&db)).unwrap();
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
        let loaded = DiskDb::from_bytes(&image(&db)).unwrap();
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
        let loaded = DiskDb::from_bytes(&image(&db)).unwrap();
        let shards = loaded.shards(100);
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![1, 1, 1]);
        assert_eq!(shards[1].seqs[0].name, "huge");
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
