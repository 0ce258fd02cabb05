//! `SeqSource` — the one ingest abstraction behind every sweep.
//!
//! The pipeline used to reach its target database three different ways:
//! an in-memory [`SeqDb`], packed [`DiskDb`] shards, and ad-hoc FASTA
//! text chunking in `h3w-pipeline::stream`. Each path had its own
//! chunking loop (with its own off-by-one at the residue cap) and its
//! own identity story for checkpoint drift guards. This module unifies
//! them: a [`SeqSource`] knows its label, its size, a stable content
//! identity, and how to deliver itself as bounded-memory [`SeqDb`]
//! chunks of whole sequences — so a 1.29 G-residue Env_nr-scale sweep
//! runs in memory proportional to the chunk cap, not the database.
//!
//! Only [`SeqSource::chunks`] is needed to search a source: the filter
//! thresholds are P-values, and the E-value scale is the number of
//! sequences the stream delivered. Size and identity are for callers
//! that must know them *before* the stream ends (a checkpointed sweep
//! pins both), and a source may have to read itself through to answer:
//! [`FastaFileSource`] does, once, on first request.
//!
//! Chunk boundary rule, implemented once by [`Chunker`] (which also
//! cuts [`crate::gen::gen_chunks`] and `DiskDb::shards`): a chunk is
//! closed *before* admitting a sequence that would push it past
//! `max_residues`; only a single sequence longer than the cap may form
//! an oversized chunk, alone. Chunks preserve database order, so
//! sequence ids are recovered by offsetting with the running count.

use crate::diskdb::{content_hash, ContentHasher, DiskDb};
use crate::fasta::{FastaError, ReadSeqError, SeqReader};
use crate::gen::{gen_chunks, gen_identity, DbGenSpec};
use crate::seq::{DigitalSeq, SeqDb};
use h3w_hmm::plan7::CoreModel;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Why a source failed to deliver its next chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// FASTA text violated the grammar.
    Fasta(FastaError),
    /// The backing file could not be read.
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        msg: String,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Fasta(e) => e.fmt(f),
            SourceError::Io { path, msg } => write!(f, "{path}: {msg}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<FastaError> for SourceError {
    fn from(e: FastaError) -> SourceError {
        SourceError::Fasta(e)
    }
}

/// A database the pipeline can sweep in bounded-memory chunks.
pub trait SeqSource {
    /// Human-readable database label (reported in hits and telemetry).
    fn label(&self) -> &str;

    /// Exact number of sequences `chunks` delivers (the E-value scale of
    /// a sweep that pins it up front). Free for every source but a FASTA
    /// file, which pays one pass over the file for the first of
    /// `n_seqs` / `total_residues` / `identity`.
    fn n_seqs(&self) -> usize;

    /// Total residues. Exact for materialized sources; the analytic
    /// expectation for generated ones (telemetry only — correctness
    /// never depends on it).
    fn total_residues(&self) -> u64;

    /// Stable content identity for checkpoint drift guards: two sources
    /// with the same identity stream the same sweep. Covers the whole
    /// database, so it is known only once all of it has been read.
    fn identity(&self) -> u64;

    /// Stream the database as chunks of at most `max_residues` residues
    /// (whole sequences, database order; see the module-level boundary
    /// rule). Each call restarts from the first sequence.
    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's>;
}

/// Group a fallible sequence stream into bounded chunks under the shared
/// boundary rule. The building block for every [`SeqSource::chunks`]
/// implementation; on a stream error the partial chunk is dropped and
/// the error is yielded once.
pub struct Chunker<I, E> {
    inner: I,
    name: String,
    max_residues: u64,
    pending: Option<DigitalSeq>,
    /// Sequences in the previous chunk: the next one is allocated for
    /// about as many, where a `Vec` grown by doubling ends up to twice
    /// over and copies itself a dozen times on the way.
    last_len: usize,
    done: bool,
    _err: std::marker::PhantomData<E>,
}

impl<I, E> Chunker<I, E>
where
    I: Iterator<Item = Result<DigitalSeq, E>>,
{
    /// Chunk `inner` into [`SeqDb`]s labeled `name`, at most
    /// `max_residues` residues each.
    pub fn new(name: &str, inner: I, max_residues: u64) -> Chunker<I, E> {
        assert!(max_residues > 0, "chunk size must be positive");
        Chunker {
            inner,
            name: name.to_string(),
            max_residues,
            pending: None,
            last_len: 0,
            done: false,
            _err: std::marker::PhantomData,
        }
    }
}

impl<I, E> Iterator for Chunker<I, E>
where
    I: Iterator<Item = Result<DigitalSeq, E>>,
{
    type Item = Result<SeqDb, E>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Equal-residue chunks of one database hold nearly equal counts;
        // the sixteenth covers the spread without a regrow.
        let mut chunk = SeqDb {
            name: self.name.clone(),
            seqs: Vec::with_capacity(self.last_len + self.last_len / 16),
        };
        let mut residues = 0u64;
        if let Some(s) = self.pending.take() {
            residues += s.len() as u64;
            chunk.seqs.push(s);
        }
        loop {
            match self.inner.next() {
                None => {
                    self.done = true;
                    break;
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Some(Ok(s)) => {
                    if !chunk.seqs.is_empty() && residues + s.len() as u64 > self.max_residues {
                        self.pending = Some(s);
                        break;
                    }
                    residues += s.len() as u64;
                    chunk.seqs.push(s);
                    if residues >= self.max_residues {
                        break;
                    }
                }
            }
        }
        self.last_len = chunk.seqs.len();
        (!chunk.seqs.is_empty()).then_some(Ok(chunk))
    }
}

impl SeqSource for SeqDb {
    fn label(&self) -> &str {
        &self.name
    }

    fn n_seqs(&self) -> usize {
        self.len()
    }

    fn total_residues(&self) -> u64 {
        SeqDb::total_residues(self)
    }

    fn identity(&self) -> u64 {
        content_hash(self)
    }

    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        Box::new(Chunker::new(
            &self.name,
            self.seqs.iter().cloned().map(Ok),
            max_residues,
        ))
    }
}

impl SeqSource for DiskDb {
    fn label(&self) -> &str {
        &self.name
    }

    fn n_seqs(&self) -> usize {
        DiskDb::n_seqs(self)
    }

    fn total_residues(&self) -> u64 {
        self.total_residues
    }

    fn identity(&self) -> u64 {
        self.content_hash
    }

    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        // Decode lazily, one sequence at a time, so only the chunk in
        // flight is ever unpacked.
        Box::new(Chunker::new(&self.name, self.seqs().map(Ok), max_residues))
    }
}

/// Totals gathered by one streaming pass over FASTA input.
#[derive(Debug, Clone, Copy)]
struct FastaStats {
    n_seqs: usize,
    total_residues: u64,
    identity: u64,
}

fn scan_fasta<R: BufRead>(db_name: &str, reader: R) -> Result<FastaStats, ReadSeqError> {
    let mut hash = ContentHasher::new(db_name);
    let mut n_seqs = 0usize;
    let mut total_residues = 0u64;
    let mut records = SeqReader::new(reader);
    // One record buffer for the whole pass: nothing read here is kept.
    let mut seq = DigitalSeq::default();
    while records.read_record(&mut seq)? {
        hash.push_seq(&seq.name, &seq.desc, &seq.residues);
        n_seqs += 1;
        total_residues += seq.len() as u64;
    }
    Ok(FastaStats {
        n_seqs,
        total_residues,
        identity: hash.finish(),
    })
}

/// A FASTA file on disk, streamed in constant memory and, unless the
/// caller asks for its size or identity, read exactly once.
///
/// [`open`] only opens the file. [`SeqSource::chunks`] decodes and
/// validates as it goes, so a grammar error surfaces from the chunk that
/// contains it. [`SeqSource::n_seqs`], [`SeqSource::total_residues`] and
/// [`SeqSource::identity`] need the whole file: the first of them to be
/// called runs one validating pass (never holding more than a record)
/// and caches its totals, which is what a checkpointed sweep pays to pin
/// its scale and drift guard before it commits anything. [`scan`] is
/// that pass with its error; once it has failed, the three getters
/// report zero and every `chunks` call yields the failure first, so a
/// sweep pinned on them stops before its first chunk.
///
/// The database label is the path string, matching what
/// `cli::load_seqdb` produces, so identities (and therefore checkpoints)
/// agree between streamed and materialized runs.
///
/// [`open`]: FastaFileSource::open
/// [`scan`]: FastaFileSource::scan
#[derive(Debug)]
pub struct FastaFileSource {
    path: PathBuf,
    name: String,
    /// The handle `open` got, for the first pass over the file: a path
    /// that can be opened only once (a FIFO) still streams.
    opened: Mutex<Option<File>>,
    stats: OnceLock<Result<FastaStats, SourceError>>,
}

impl FastaFileSource {
    /// Open `path` without reading it; a missing or unreadable file is
    /// [`SourceError::Io`].
    pub fn open(path: &Path) -> Result<FastaFileSource, SourceError> {
        let name = path.display().to_string();
        let io = |e: std::io::Error| SourceError::Io {
            path: name.clone(),
            msg: e.to_string(),
        };
        let file = File::open(path).map_err(io)?;
        if file.metadata().map_err(io)?.is_dir() {
            return Err(io(std::io::ErrorKind::IsADirectory.into()));
        }
        Ok(FastaFileSource {
            path: path.to_path_buf(),
            name,
            opened: Mutex::new(Some(file)),
            stats: OnceLock::new(),
        })
    }

    /// Validate the whole file (one streaming pass, cached) so that the
    /// size and identity getters are exact; the grammar or I/O error of
    /// that pass otherwise.
    pub fn scan(&self) -> Result<(), SourceError> {
        self.stats().map(|_| ())
    }

    fn stats(&self) -> Result<FastaStats, SourceError> {
        self.stats
            .get_or_init(|| scan_fasta(&self.name, self.reader()?).map_err(|e| self.read_error(e)))
            .clone()
    }

    /// A buffered reader at the start of the file: `open`'s handle the
    /// first time, a fresh one after.
    fn reader(&self) -> Result<BufReader<File>, SourceError> {
        // The lock guards only an `Option::take`, so a poisoned guard
        // holds a sound `Option`.
        let opened = self
            .opened
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let file = match opened {
            Some(file) => file,
            None => File::open(&self.path).map_err(|e| self.read_error(ReadSeqError::Io(e)))?,
        };
        Ok(BufReader::with_capacity(1 << 20, file))
    }

    fn read_error(&self, e: ReadSeqError) -> SourceError {
        match e {
            ReadSeqError::Fasta(e) => SourceError::Fasta(e),
            ReadSeqError::Io(e) => SourceError::Io {
                path: self.name.clone(),
                msg: e.to_string(),
            },
        }
    }
}

impl SeqSource for FastaFileSource {
    fn label(&self) -> &str {
        &self.name
    }

    fn n_seqs(&self) -> usize {
        self.stats().map_or(0, |s| s.n_seqs)
    }

    fn total_residues(&self) -> u64 {
        self.stats().map_or(0, |s| s.total_residues)
    }

    fn identity(&self) -> u64 {
        self.stats().map_or(0, |s| s.identity)
    }

    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        let reader = match self.stats.get() {
            Some(Err(failed_scan)) => Err(failed_scan.clone()),
            _ => self.reader(),
        };
        match reader {
            Err(e) => Box::new(std::iter::once(Err(e))),
            Ok(reader) => {
                let records = SeqReader::new(reader).map(|r| r.map_err(|e| self.read_error(e)));
                Box::new(Chunker::new(&self.name, records, max_residues))
            }
        }
    }
}

/// A synthetic database that exists only as its generation recipe:
/// chunks are generated on demand ([`crate::gen::gen_chunks`]), so the
/// paper's 1.29 G-residue Env_nr never has to be materialized or even
/// written to disk. `total_residues` is the spec's expectation.
pub struct GenSource<'m> {
    spec: DbGenSpec,
    model: Option<&'m CoreModel>,
    seed: u64,
}

impl<'m> GenSource<'m> {
    /// Wrap a generation recipe as a source.
    pub fn new(spec: DbGenSpec, model: Option<&'m CoreModel>, seed: u64) -> GenSource<'m> {
        GenSource { spec, model, seed }
    }
}

impl SeqSource for GenSource<'_> {
    fn label(&self) -> &str {
        &self.spec.name
    }

    fn n_seqs(&self) -> usize {
        self.spec.n_seqs
    }

    fn total_residues(&self) -> u64 {
        self.spec.expected_residues()
    }

    fn identity(&self) -> u64 {
        gen_identity(&self.spec, self.model, self.seed)
    }

    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        Box::new(gen_chunks(&self.spec, self.model, self.seed, max_residues).map(Ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskdb::tests::write_db;
    use crate::fasta;
    use crate::gen::generate;
    use h3w_hmm::alphabet::textize_seq;

    fn sample_db() -> SeqDb {
        let mut spec = DbGenSpec::swissprot_like().scaled(1e-4);
        spec.homolog_fraction = 0.0;
        generate(&spec, None, 5)
    }

    fn concat(chunks: Vec<SeqDb>) -> Vec<DigitalSeq> {
        chunks.into_iter().flat_map(|c| c.seqs).collect()
    }

    #[test]
    fn every_source_kind_round_trips_and_agrees_on_identity() {
        let db = sample_db();
        let text = fasta::render(&db);
        let dir = std::env::temp_dir().join(format!("h3w-source-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa_path = dir.join("db.fa");
        std::fs::write(&fa_path, &text).unwrap();

        let db_path = dir.join("db.h3wdb");
        write_db(&db, &db_path).unwrap();

        // Parse the text under each source's own label so content hashes
        // are comparable per source.
        let disk = DiskDb::load(&db_path).unwrap();
        let file_fa = FastaFileSource::open(&fa_path).unwrap();

        let sources: Vec<(&dyn SeqSource, SeqDb)> = vec![
            (&db, db.clone()),
            (&disk, db.clone()),
            (
                &file_fa,
                fasta::parse(&fa_path.display().to_string(), &text).unwrap(),
            ),
        ];
        for (src, expect) in sources {
            assert_eq!(src.n_seqs(), expect.len());
            assert_eq!(SeqSource::total_residues(src), expect.total_residues());
            assert_eq!(src.identity(), content_hash(&expect), "{}", src.label());
            for cap in [500u64, 7_000, u64::MAX] {
                let chunks: Vec<SeqDb> = src
                    .chunks(cap)
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|e| panic!("{}: {e}", src.label()));
                for c in &chunks {
                    assert!(
                        c.total_residues() <= cap || c.len() == 1,
                        "{}: chunk of {} residues over cap {cap}",
                        src.label(),
                        c.total_residues()
                    );
                    assert_eq!(c.name, src.label());
                }
                assert_eq!(concat(chunks), expect.seqs, "{} cap {cap}", src.label());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fasta_identity_is_pinned_by_value() {
        // Computed at the commit before the byte-level reader (PR 11,
        // 2d4c21e). Checkpoints record this identity, so a different value
        // here means sweeps checkpointed by an older build no longer resume.
        const PIN_FASTA: &str = ">sp|P1|PIN pinned protein, first\nMKVLayWQRST\nacdxB\n\
                                 ; comment\n\n>p2\nGHIKLMNPZ\n";
        const PIN_IDENTITY: u64 = 0x9386_30a0_73ac_7343;
        // The pass behind `FastaFileSource::identity`, under the label the
        // pin was taken with.
        let streamed = scan_fasta("pin", PIN_FASTA.as_bytes()).unwrap();
        assert_eq!(streamed.identity, PIN_IDENTITY);
        let parsed = fasta::parse("pin", PIN_FASTA).unwrap();
        assert_eq!(content_hash(&parsed), PIN_IDENTITY);
        assert_eq!(parsed.seqs[0].desc, "pinned protein, first");
        assert_eq!(
            textize_seq(&parsed.seqs[0].residues).unwrap(),
            "MKVLAYWQRSTACDXB"
        );
    }

    #[test]
    fn gen_source_streams_the_one_shot_database() {
        let mut spec = DbGenSpec::envnr_like().scaled(1e-4);
        spec.homolog_fraction = 0.0;
        let whole = generate(&spec, None, 9);
        let src = GenSource::new(spec.clone(), None, 9);
        assert_eq!(src.n_seqs(), whole.len());
        let chunks: Vec<SeqDb> = src.chunks(10_000).collect::<Result<_, _>>().unwrap();
        assert!(chunks.len() > 1);
        assert_eq!(concat(chunks), whole.seqs);
        // Identity is recipe-stable and seed-sensitive.
        assert_eq!(
            src.identity(),
            GenSource::new(spec.clone(), None, 9).identity()
        );
        assert_ne!(src.identity(), GenSource::new(spec, None, 10).identity());
    }

    #[test]
    fn fasta_errors_surface_through_chunks() {
        let bad = ">ok\nMKVL\n>broken\nMK1L\n";
        // A file source validates as it streams: the chunk that holds the
        // flaw is the one that fails, and the stream ends there.
        let dir = std::env::temp_dir().join(format!("h3w-source-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.fa");
        std::fs::write(&path, bad).unwrap();
        let flaw = SourceError::Fasta(FastaError::BadResidue { line: 4, ch: '1' });
        let src = FastaFileSource::open(&path).unwrap();
        let results: Vec<_> = src.chunks(4).collect();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_ref().unwrap().seqs[0].name, "ok");
        assert_eq!(results[1].as_ref().unwrap_err(), &flaw);
        // Asking for the size scans the whole file. The failure is kept:
        // the getters read zero and every later stream opens with it.
        assert_eq!(src.scan().unwrap_err(), flaw);
        assert_eq!(
            (src.n_seqs(), src.total_residues(), src.identity()),
            (0, 0, 0)
        );
        let results: Vec<_> = src.chunks(4).collect();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].as_ref().unwrap_err(), &flaw);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_records_and_chunks_are_allocated_for_what_they_keep() {
        // Near-equal lengths, so equal-residue chunks hold near-equal counts.
        let mut db = SeqDb::new("even");
        for i in 0..200usize {
            let desc = if i % 2 == 0 { "" } else { "described" };
            db.seqs.push(DigitalSeq {
                name: format!("s{i}"),
                desc: desc.to_string(),
                residues: (0..48 + i % 6).map(|j| ((i + j) % 20) as u8).collect(),
            });
        }
        let text = fasta::render(&db);
        // The reader and chunker `FastaFileSource::chunks` composes.
        let records = SeqReader::new(text.as_bytes());
        let chunks: Vec<SeqDb> = Chunker::new("mem", records, 1_000)
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(chunks.len() > 3);
        for s in chunks.iter().flat_map(|c| &c.seqs) {
            assert_eq!(s.residues.capacity(), s.residues.len());
            assert_eq!(s.name.capacity(), s.name.len());
            assert_eq!(s.desc.capacity(), s.desc.len());
        }
        // From the second chunk on, the sequence list is sized from the
        // chunk before it, not doubled up to it.
        for pair in chunks.windows(2) {
            let cap = pair[1].seqs.capacity();
            assert!(
                cap <= pair[0].len().max(pair[1].len()) * 17 / 16,
                "{cap} slots for {} sequences after a chunk of {}",
                pair[1].len(),
                pair[0].len()
            );
        }
    }

    #[test]
    fn missing_file_is_io() {
        let err = FastaFileSource::open(Path::new("/nonexistent/db.fa")).unwrap_err();
        assert!(matches!(err, SourceError::Io { .. }));
    }
}
