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
//! Chunk boundary rule (shared by every implementation, including
//! [`crate::gen::GenChunks`] and `DiskDb::shards`): a chunk is closed
//! *before* admitting a sequence that would push it past `max_residues`;
//! only a single sequence longer than the cap may form an oversized
//! chunk, alone. Chunks preserve database order, so sequence ids are
//! recovered by offsetting with the running count.

use crate::diskdb::{content_hash, ContentHasher, DiskDb};
use crate::fasta::{FastaError, ReadSeqError, SeqReader};
use crate::gen::{gen_chunks, gen_identity, DbGenSpec};
use crate::seq::{DigitalSeq, SeqDb};
use h3w_hmm::plan7::CoreModel;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// Why a source failed to deliver its next chunk.
#[derive(Debug)]
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

    /// Exact number of sequences (E-values scale by this).
    fn n_seqs(&self) -> usize;

    /// Total residues. Exact for materialized sources; the analytic
    /// expectation for generated ones (telemetry only — correctness
    /// never depends on it).
    fn total_residues(&self) -> u64;

    /// Stable content identity for checkpoint drift guards: two sources
    /// with the same identity stream the same sweep.
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
        let mut chunk = SeqDb::new(self.name.clone());
        let mut residues = 0u64;
        if let Some(s) = self.pending.take() {
            residues += s.len() as u64;
            chunk.seqs.push(s);
        }
        loop {
            match self.inner.next() {
                None => {
                    self.done = true;
                    return (!chunk.seqs.is_empty()).then_some(Ok(chunk));
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Some(Ok(s)) => {
                    if !chunk.seqs.is_empty() && residues + s.len() as u64 > self.max_residues {
                        self.pending = Some(s);
                        return Some(Ok(chunk));
                    }
                    residues += s.len() as u64;
                    chunk.seqs.push(s);
                    if residues >= self.max_residues {
                        return Some(Ok(chunk));
                    }
                }
            }
        }
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
        Box::new(Chunker::new(
            &self.name,
            (0..self.n_seqs()).map(|i| Ok(self.seq(i))),
            max_residues,
        ))
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

/// FASTA text already in memory, exposed as a source. The identity
/// equals `content_hash(&fasta::parse(name, text)?)`, so checkpoints
/// interoperate with materialized loads of the same file.
pub struct FastaSource<'t> {
    name: String,
    text: &'t str,
    stats: FastaStats,
}

impl<'t> FastaSource<'t> {
    /// Validate `text` in one streaming pass and build the source.
    pub fn new(name: &str, text: &'t str) -> Result<FastaSource<'t>, FastaError> {
        let stats = match scan_fasta(name, text.as_bytes()) {
            Ok(s) => s,
            Err(ReadSeqError::Fasta(e)) => return Err(e),
            Err(ReadSeqError::Io(e)) => unreachable!("io error on in-memory text: {e}"),
        };
        Ok(FastaSource {
            name: name.to_string(),
            text,
            stats,
        })
    }
}

impl SeqSource for FastaSource<'_> {
    fn label(&self) -> &str {
        &self.name
    }

    fn n_seqs(&self) -> usize {
        self.stats.n_seqs
    }

    fn total_residues(&self) -> u64 {
        self.stats.total_residues
    }

    fn identity(&self) -> u64 {
        self.stats.identity
    }

    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        let records = SeqReader::new(self.text.as_bytes()).map(|r| {
            r.map_err(|e| match e {
                ReadSeqError::Fasta(e) => SourceError::Fasta(e),
                ReadSeqError::Io(e) => unreachable!("io error on in-memory text: {e}"),
            })
        });
        Box::new(Chunker::new(&self.name, records, max_residues))
    }
}

/// A FASTA file on disk, streamed in constant memory: [`open`]
/// validates with one buffered pass (never holding more than a record),
/// and each [`SeqSource::chunks`] call re-reads the file. The database
/// label is the path string, matching what `cli::load_seqdb` produces,
/// so identities (and therefore checkpoints) agree between streamed and
/// materialized runs.
///
/// [`open`]: FastaFileSource::open
#[derive(Debug)]
pub struct FastaFileSource {
    path: PathBuf,
    name: String,
    stats: FastaStats,
}

impl FastaFileSource {
    /// Open and validate `path` (one streaming pass).
    pub fn open(path: &Path) -> Result<FastaFileSource, SourceError> {
        let name = path.display().to_string();
        let file = std::fs::File::open(path).map_err(|e| SourceError::Io {
            path: name.clone(),
            msg: e.to_string(),
        })?;
        let reader = std::io::BufReader::with_capacity(1 << 20, file);
        let stats = scan_fasta(&name, reader).map_err(|e| match e {
            ReadSeqError::Fasta(e) => SourceError::Fasta(e),
            ReadSeqError::Io(e) => SourceError::Io {
                path: name.clone(),
                msg: e.to_string(),
            },
        })?;
        Ok(FastaFileSource {
            path: path.to_path_buf(),
            name,
            stats,
        })
    }
}

impl SeqSource for FastaFileSource {
    fn label(&self) -> &str {
        &self.name
    }

    fn n_seqs(&self) -> usize {
        self.stats.n_seqs
    }

    fn total_residues(&self) -> u64 {
        self.stats.total_residues
    }

    fn identity(&self) -> u64 {
        self.stats.identity
    }

    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        let name = self.name.clone();
        match std::fs::File::open(&self.path) {
            Err(e) => Box::new(std::iter::once(Err(SourceError::Io {
                path: name,
                msg: e.to_string(),
            }))),
            Ok(file) => {
                let reader = std::io::BufReader::with_capacity(1 << 20, file);
                let err_name = name.clone();
                let records = SeqReader::new(reader).map(move |r| {
                    r.map_err(|e| match e {
                        ReadSeqError::Fasta(e) => SourceError::Fasta(e),
                        ReadSeqError::Io(e) => SourceError::Io {
                            path: err_name.clone(),
                            msg: e.to_string(),
                        },
                    })
                });
                Box::new(Chunker::new(&name, records, max_residues))
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
    use crate::fasta;
    use crate::gen::generate;

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

        // Parse the text under each source's own label so content hashes
        // are comparable per source.
        let disk = DiskDb::from_bytes(&DiskDb::to_bytes(&db)).unwrap();
        let mem_fa = FastaSource::new("mem", &text).unwrap();
        let file_fa = FastaFileSource::open(&fa_path).unwrap();

        let sources: Vec<(&dyn SeqSource, SeqDb)> = vec![
            (&db, db.clone()),
            (&disk, db.clone()),
            (&mem_fa, fasta::parse("mem", &text).unwrap()),
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
        let streamed = FastaSource::new("pin", PIN_FASTA).unwrap();
        assert_eq!(streamed.identity(), PIN_IDENTITY);
        let parsed = fasta::parse("pin", PIN_FASTA).unwrap();
        assert_eq!(content_hash(&parsed), PIN_IDENTITY);
        assert_eq!(parsed.seqs[0].desc, "pinned protein, first");
        assert_eq!(parsed.seqs[0].to_text(), "MKVLAYWQRSTACDXB");
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
        assert!(FastaSource::new("bad", bad).is_err());
        // A file that turns bad mid-stream surfaces the error from the
        // chunk iterator too (scan catches it first in practice).
        let mut reader = SeqReader::new(bad.as_bytes()).map(|r| r.map_err(SourceError::from_read));
        let chunker = Chunker::new("bad", &mut reader, 1 << 20);
        let results: Vec<_> = chunker.collect();
        assert!(results.iter().any(|r| r.is_err()));
    }

    #[test]
    fn missing_file_is_io() {
        let err = FastaFileSource::open(Path::new("/nonexistent/db.fa")).unwrap_err();
        assert!(matches!(err, SourceError::Io { .. }));
    }

    impl SourceError {
        fn from_read(e: ReadSeqError) -> SourceError {
            match e {
                ReadSeqError::Fasta(e) => SourceError::Fasta(e),
                ReadSeqError::Io(e) => SourceError::Io {
                    path: "<memory>".into(),
                    msg: e.to_string(),
                },
            }
        }
    }
}
