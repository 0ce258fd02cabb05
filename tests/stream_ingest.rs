//! A streamed search reads its FASTA once, and validates it as it goes:
//! the plain `search_source` path never asks a source for its size or
//! identity, takes its E-value scale from the stream, and reports grammar
//! errors from the chunk that holds them, with the diagnosis `fasta::parse`
//! gives and never next to a partial hit list.

use hmmer3_warp::pipeline::{
    search_chunks, search_source, ChunkProgress, PipelineResult, StreamError, StreamOptions,
};
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::fasta::{self, FastaError, SeqReader};
use hmmer3_warp::seqdb::{Chunker, FastaFileSource, SeqSource, SourceError};
use std::io::{BufReader, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Chunk bound of every streamed sweep here: the database below spans
/// about ten of them.
const CAP: u64 = 25_000;

fn setup() -> (Pipeline, SeqDb) {
    let core = synthetic_model(50, 77, &BuildParams::default());
    let pipe = Pipeline::prepare(&core, PipelineConfig::default(), 3);
    let mut spec = DbGenSpec::envnr_like().scaled(2e-4);
    spec.homolog_fraction = 0.03;
    (pipe, generate(&spec, Some(&core), 11))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h3w-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stream(pipe: &Pipeline, source: &dyn SeqSource) -> Result<PipelineResult, StreamError> {
    search_source(pipe, source, &ExecPlan::Cpu, CAP, &Trace::off())
}

/// The resident search of `text` parsed whole: what every stream of the
/// same text must report.
fn resident(pipe: &Pipeline, text: &str) -> PipelineResult {
    let db = fasta::parse("resident", text).unwrap();
    pipe.search(&db, &ExecPlan::Cpu).unwrap()
}

fn assert_same_report(streamed: &PipelineResult, want: &PipelineResult) {
    assert_eq!(streamed.hits, want.hits);
    let bits = |r: &PipelineResult| -> Vec<(u32, u32, u64)> {
        r.hits
            .iter()
            .map(|h| (h.seqid, h.fwd_score.to_bits(), h.evalue.to_bits()))
            .collect()
    };
    assert_eq!(bits(streamed), bits(want));
    assert_eq!(streamed.db_size, want.db_size);
    for (a, b) in streamed.stages.iter().zip(&want.stages) {
        assert_eq!(
            (a.seqs_in, a.seqs_out, a.residues_in),
            (b.seqs_in, b.seqs_out, b.residues_in),
            "funnel diverged at {}",
            a.name
        );
    }
}

/// A FASTA file behind a reader that counts the bytes it hands out. The
/// size and identity getters panic: a plain streamed search has no
/// business calling them.
struct CountedFasta {
    path: PathBuf,
    bytes_read: AtomicU64,
}

struct Counting<'c, R> {
    inner: R,
    count: &'c AtomicU64,
}

impl<R: Read> Read for Counting<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl SeqSource for CountedFasta {
    fn label(&self) -> &str {
        "counted"
    }
    fn n_seqs(&self) -> usize {
        panic!("a plain streamed search asked for n_seqs")
    }
    fn total_residues(&self) -> u64 {
        panic!("a plain streamed search asked for total_residues")
    }
    fn identity(&self) -> u64 {
        panic!("a plain streamed search asked for identity")
    }
    fn chunks<'s>(
        &'s self,
        max_residues: u64,
    ) -> Box<dyn Iterator<Item = Result<SeqDb, SourceError>> + 's> {
        let reader = BufReader::new(Counting {
            inner: std::fs::File::open(&self.path).unwrap(),
            count: &self.bytes_read,
        });
        let records = SeqReader::new(reader).map(|r| {
            r.map_err(|e| SourceError::Io {
                path: "counted".into(),
                msg: e.to_string(),
            })
        });
        Box::new(Chunker::new("counted", records, max_residues))
    }
}

#[test]
fn plain_streamed_search_reads_the_file_once_and_never_asks_its_size() {
    let (pipe, db) = setup();
    let text = fasta::render(&db);
    let dir = tmpdir("once");
    let path = dir.join("db.fa");
    std::fs::write(&path, &text).unwrap();
    let want = resident(&pipe, &text);
    assert!(want.hits.len() >= 10, "workload needs hits to compare");

    let counted = CountedFasta {
        path: path.clone(),
        bytes_read: AtomicU64::new(0),
    };
    assert_same_report(&stream(&pipe, &counted).unwrap(), &want);
    assert_eq!(
        counted.bytes_read.load(Ordering::Relaxed),
        text.len() as u64
    );

    // The real file source: same report, and the size and identity it was
    // never asked for are still there afterwards, equal to the parsed
    // database's (what a materialized run would checkpoint against).
    let source = FastaFileSource::open(&path).unwrap();
    assert_same_report(&stream(&pipe, &source).unwrap(), &want);
    let parsed = fasta::parse(source.label(), &text).unwrap();
    assert_eq!(source.identity(), content_hash(&parsed));
    assert_eq!(source.n_seqs(), parsed.len());
    assert_eq!(source.total_residues(), parsed.total_residues());
    assert_same_report(&stream(&pipe, &source).unwrap(), &want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A FIFO can be opened and read exactly once, so a search over one
/// finishes only if `open` + `search_source` make a single pass with the
/// handle `open` got. A second pass would block forever on the re-open;
/// the timeout turns that into a failure.
#[cfg(unix)]
#[test]
fn file_source_streams_a_fifo() {
    let dir = tmpdir("fifo");
    let fifo = dir.join("db.fifo");
    match std::process::Command::new("mkfifo").arg(&fifo).status() {
        Ok(status) if status.success() => {}
        other => {
            eprintln!("SKIP: mkfifo unavailable ({other:?})");
            return;
        }
    }
    let (pipe, db) = setup();
    let text = fasta::render(&db);
    let want = resident(&pipe, &text);

    let writer = {
        let (fifo, text) = (fifo.clone(), text.clone());
        std::thread::spawn(move || std::fs::write(fifo, text))
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let result = FastaFileSource::open(&fifo).map(|source| stream(&pipe, &source));
        let _ = tx.send(result);
    });
    let streamed = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the search went back to the FIFO for a second pass");
    assert_same_report(&streamed.unwrap().unwrap(), &want);
    reader.join().unwrap();
    writer.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Line (1-based) of the first residue line of record `index`.
fn residue_line_of(text: &str, index: usize) -> usize {
    let header = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with('>'))
        .nth(index)
        .expect("record exists");
    header.0 + 2
}

fn replace_line(text: &str, line: usize, with: &str) -> String {
    text.lines()
        .enumerate()
        .map(|(i, l)| if i + 1 == line { with } else { l })
        .flat_map(|l| [l, "\n"])
        .collect()
}

fn expect_fasta(err: StreamError) -> FastaError {
    match err {
        StreamError::Source(SourceError::Fasta(e)) => e,
        other => panic!("expected a FASTA grammar error, got {other:?}"),
    }
}

#[test]
fn grammar_errors_surface_from_their_chunk_with_the_parsers_diagnosis() {
    let (pipe, db) = setup();
    let text = fasta::render(&db);
    let dir = tmpdir("hostile");

    // The first record of the third chunk, from the clean file's chunking.
    let clean = dir.join("clean.fa");
    std::fs::write(&clean, &text).unwrap();
    let chunk_lens: Vec<usize> = FastaFileSource::open(&clean)
        .unwrap()
        .chunks(CAP)
        .map(|c| c.unwrap().len())
        .collect();
    assert!(chunk_lens.len() >= 4, "need a multi-chunk file");
    let victim = chunk_lens[0] + chunk_lens[1];
    let line = residue_line_of(&text, victim);
    let mut bad_residue = text.lines().nth(line - 1).unwrap().to_string();
    bad_residue.replace_range(3..4, "1");

    let cases: [(&str, String, FastaError); 3] = [
        (
            "bad-residue",
            replace_line(&text, line, &bad_residue),
            FastaError::BadResidue { line, ch: '1' },
        ),
        (
            // Every residue line of the victim commented out.
            "empty-record",
            {
                let next = residue_line_of(&text, victim + 1) - 1;
                (line..next).fold(text.clone(), |t, l| replace_line(&t, l, "; gone"))
            },
            FastaError::EmptyRecord {
                name: db.seqs[victim].name.clone(),
            },
        ),
        (
            // Only possible ahead of the first header: chunk one.
            "data-before-header",
            format!("MKVL\n{text}"),
            FastaError::DataBeforeHeader { line: 1 },
        ),
    ];
    for (tag, hostile, want) in cases {
        assert_eq!(fasta::parse("x", &hostile).unwrap_err(), want, "{tag}");
        let path = dir.join(format!("{tag}.fa"));
        std::fs::write(&path, &hostile).unwrap();

        // Plain stream: open succeeds, the sweep fails with the parser's
        // own error (and so returns no hit list at all).
        let source = FastaFileSource::open(&path).unwrap();
        assert_eq!(expect_fasta(stream(&pipe, &source).unwrap_err()), want);

        // Checkpointed stream: pinning scale and identity scans the file
        // first, so the error arrives before any chunk is swept and no
        // checkpoint is left behind.
        let source = FastaFileSource::open(&path).unwrap();
        let ckpt = dir.join(format!("{tag}.ckpt"));
        let mut swept = 0usize;
        let mut observer = |_: &ChunkProgress| {
            swept += 1;
            Ok(())
        };
        let options = StreamOptions {
            checkpoint: Some((&ckpt, source.identity())),
            observer: Some(&mut observer),
        };
        let err = search_chunks(
            &pipe,
            source.chunks(CAP),
            Some(source.n_seqs()),
            &ExecPlan::Cpu,
            options,
            &Trace::off(),
        )
        .unwrap_err();
        assert_eq!(expect_fasta(err), want, "{tag}");
        assert_eq!(swept, 0, "{tag}: chunks swept ahead of the error");
        assert!(!ckpt.exists(), "{tag}: checkpoint left behind");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpointed_sweep_must_pin_its_scale() {
    let (pipe, db) = setup();
    let dir = tmpdir("unpinned");
    let ckpt = dir.join("sweep.ckpt");
    let options = StreamOptions {
        checkpoint: Some((&ckpt, content_hash(&db))),
        observer: None,
    };
    let err = search_chunks(
        &pipe,
        SeqSource::chunks(&db, CAP),
        None,
        &ExecPlan::Cpu,
        options,
        &Trace::off(),
    )
    .unwrap_err();
    assert!(
        matches!(err, StreamError::Checkpoint(_)),
        "expected a checkpoint error, got {err:?}"
    );
    assert!(!ckpt.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benign_file_shapes_stream_to_the_resident_result() {
    let (pipe, db) = setup();
    let text = fasta::render(&db);
    let dir = tmpdir("shapes");
    // One sequence several chunks long, ahead of the rest of the database.
    let giant = {
        let mut with_giant = SeqDb::new("giant");
        with_giant.seqs.push(DigitalSeq {
            name: "giant".into(),
            desc: String::new(),
            residues: db
                .seqs
                .iter()
                .flat_map(|s| s.residues.iter().copied())
                .take(3 * CAP as usize + 17)
                .collect(),
        });
        with_giant.seqs.extend(db.seqs.iter().cloned());
        fasta::render(&with_giant)
    };
    let shapes: [(&str, String); 4] = [
        ("crlf", text.replace('\n', "\r\n")),
        ("no-trailing-newline", text.trim_end().to_string()),
        ("empty", String::new()),
        ("giant", giant),
    ];
    for (tag, shape) in shapes {
        let path = dir.join(format!("{tag}.fa"));
        std::fs::write(&path, &shape).unwrap();
        let source = FastaFileSource::open(&path).unwrap();
        let streamed = stream(&pipe, &source).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_same_report(&streamed, &resident(&pipe, &shape));
        assert_eq!(streamed.hits.is_empty(), tag == "empty", "{tag}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
