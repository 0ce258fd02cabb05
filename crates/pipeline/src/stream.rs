//! Memory-bounded streaming search — one driver for every entry point.
//!
//! The paper's Env_nr workload is 1.29 G residues — comfortably more than
//! one wants resident while also holding DP buffers. This module sweeps
//! any [`SeqSource`] (in-memory [`SeqDb`], packed `DiskDb`, FASTA text or
//! file, or a generation recipe that never materializes) in bounded-size
//! chunks, each swept with the normal parallel pipeline under **any**
//! [`ExecPlan`] — threads, batching and the device pool all apply per
//! chunk; a device plan partitions each chunk's stages across its pool.
//! Per-chunk survivors merge with E-values kept
//! global (P-values scale by the *whole* database size, exactly as a
//! single-pass run would), so streamed hits are bit-identical to
//! single-pass hits. That size is either pinned by the caller or, when
//! the stream is the whole database, counted as the stream goes by: no
//! filter threshold depends on it, only the E-value put on a hit at the
//! merge, so nothing has to read the database ahead of the sweep.
//!
//! There are two entries. [`search_chunks`] is the driver itself: it
//! takes any fallible stream of chunks (owned or borrowed), the E-value
//! scale (`Some(n)`, or `None` for "what streams is the database"), a
//! plan, and [`StreamOptions`] — an optional **checkpoint**
//! (path + drift guard: the sweep state is persisted after every chunk,
//! and an existing file is resumed from, so a killed process picks up
//! where it left off with bit-identical results) and an optional
//! **observer** consulted before each chunk (a resident service's
//! deadline and chaos hook). [`search_source`] is the plain case: stream
//! a [`SeqSource`] in chunks of at most `max_residues`, no options, scale
//! from the stream, the source read exactly once.
//!
//! A streamed report names its stages as its plan does
//! ([`ExecPlan::stage_labels`]); a checkpoint keeps counters, not labels.

use crate::checkpoint::{CheckpointError, StreamCheckpoint};
use crate::report::PipelineResult;
use crate::run::{ExecPlan, Pipeline};
use h3w_core::tiered::SweepError;
use h3w_seqdb::source::{SeqSource, SourceError};
use h3w_seqdb::{length_bins, SeqDb};
use h3w_trace::Trace;
use std::borrow::Borrow;
use std::path::Path;

/// Why a streamed sweep stopped early. Every failure mode of the layered
/// machinery — ingest, the sweep itself, checkpoint persistence, or a
/// caller-imposed cancellation — maps to a typed variant, so streaming is
/// no longer a second-class entry point that panics where
/// [`Pipeline::search`] would return.
#[derive(Debug)]
pub enum StreamError {
    /// The source failed to deliver a chunk (I/O or FASTA grammar).
    Source(SourceError),
    /// A chunk sweep failed (device planning/launch errors).
    Sweep(SweepError),
    /// Checkpoint persistence or validation failed.
    Checkpoint(CheckpointError),
    /// The observer cancelled the sweep (e.g. a service deadline).
    Cancelled(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "stream source: {e}"),
            StreamError::Sweep(e) => write!(f, "stream sweep: {e}"),
            StreamError::Checkpoint(e) => write!(f, "stream checkpoint: {e}"),
            StreamError::Cancelled(why) => write!(f, "stream cancelled: {why}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SourceError> for StreamError {
    fn from(e: SourceError) -> StreamError {
        StreamError::Source(e)
    }
}

impl From<SweepError> for StreamError {
    fn from(e: SweepError) -> StreamError {
        StreamError::Sweep(e)
    }
}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> StreamError {
        StreamError::Checkpoint(e)
    }
}

/// Where a streamed sweep stands when the observer is consulted (before
/// each chunk is swept).
#[derive(Debug, Clone, Copy)]
pub struct ChunkProgress {
    /// Zero-based index of the chunk about to run.
    pub index: usize,
    /// Sequences already swept (or skipped by checkpoint resume).
    pub seqs_done: usize,
    /// Residues already swept (or skipped by checkpoint resume).
    pub residues_done: u64,
    /// Sequences in the chunk about to run.
    pub chunk_seqs: usize,
    /// Residues in the chunk about to run.
    pub chunk_residues: u64,
}

/// Hook consulted before each chunk; returning `Err(reason)` aborts the
/// sweep with [`StreamError::Cancelled`]. Services use it for deadline
/// checks and chaos injection at chunk boundaries.
pub type ChunkObserver<'o> = &'o mut dyn FnMut(&ChunkProgress) -> Result<(), String>;

/// A completed streamed sweep: the (plan-invariant) results and how
/// much of them a checkpoint resume skipped.
#[derive(Debug)]
pub struct StreamReport {
    /// Merged hits and funnel counters.
    pub result: PipelineResult,
    /// Chunks a checkpoint resume skipped (already swept in an earlier
    /// run); 0 when the sweep started fresh.
    pub resumed_chunks: usize,
}

/// What a streamed sweep does besides sweeping; the default is nothing.
#[derive(Default)]
pub struct StreamOptions<'o> {
    /// Persist the accumulated state (chunk cursor, funnel counters,
    /// survivor hits) atomically to this path after every chunk, and
    /// resume after its last completed chunk if the file already exists.
    /// The `u64` is the drift guard, normally [`SeqSource::identity`] /
    /// [`h3w_seqdb::content_hash`]: resuming against a different value is
    /// rejected with [`CheckpointError::DatabaseDrift`], and a changed
    /// chunking by the cursor cross-check ([`CheckpointError::Mismatch`]).
    pub checkpoint: Option<(&'o Path, u64)>,
    /// Consulted before each chunk is swept; see [`ChunkObserver`].
    pub observer: Option<ChunkObserver<'o>>,
}

/// The streamed-sweep driver: sweep `chunks` one at a time under `plan`
/// (each through [`Pipeline::search_traced`], so per-chunk funnel
/// counters and stage times accumulate in the one `trace`) and merge.
/// Chunks may be owned or borrowed, and a chunk error ends the sweep with
/// it: an `Err` never comes with a partial hit list.
///
/// `total_seqs` is the E-value scale, the size of the database the hits
/// are ranked against. `Some(n)` pins it: the caller knows the database
/// (a resident one, a checkpointed sweep, a stream that is only part of
/// it). `None` says the stream *is* the database: the filter thresholds
/// are P-values and need no size, so the sweep counts what arrives and
/// puts `evalue = pvalue × sequences streamed` and the `report_evalue`
/// cut on the merged hits, bit for bit what `Some(that count)` gives. A
/// checkpoint records its scale, so a checkpointed sweep must pin it
/// ([`CheckpointError::Mismatch`] otherwise). A killed-then-resumed
/// checkpointed sweep reports bit-identical hits and funnel counts to an
/// uninterrupted one.
pub fn search_chunks<I, C, E>(
    pipe: &Pipeline,
    chunks: I,
    total_seqs: Option<usize>,
    plan: &ExecPlan,
    options: StreamOptions<'_>,
    trace: &Trace,
) -> Result<StreamReport, StreamError>
where
    I: IntoIterator<Item = Result<C, E>>,
    C: Borrow<SeqDb>,
    E: Into<StreamError>,
{
    let StreamOptions {
        checkpoint: ckpt,
        mut observer,
    } = options;
    if total_seqs.is_none() && ckpt.is_some() {
        return Err(CheckpointError::Mismatch(
            "a checkpoint records its sweep's E-value scale; pin total_seqs".into(),
        )
        .into());
    }
    // Only a checkpoint reads the scale out of `state`.
    let pinned = total_seqs.unwrap_or(0);
    let labels = plan.stage_labels();
    let mut state = match ckpt {
        Some((path, db_hash)) if path.exists() => {
            let ck = StreamCheckpoint::load(path, labels)?;
            if ck.total_seqs != pinned {
                return Err(CheckpointError::Mismatch(format!(
                    "checkpoint is for a {}-sequence sweep, this one has {pinned}",
                    ck.total_seqs
                ))
                .into());
            }
            if ck.db_hash != db_hash {
                return Err(CheckpointError::DatabaseDrift {
                    expected: ck.db_hash,
                    found: db_hash,
                }
                .into());
            }
            ck
        }
        Some((_, db_hash)) => StreamCheckpoint::fresh(pinned, db_hash, labels),
        None => StreamCheckpoint::fresh(pinned, 0, labels),
    };
    let resume_from = state.chunks_done;
    let mut skipped_seqs = 0u32;
    let mut residues_done = 0u64;
    let mut chunks_seen = 0usize;
    for (i, chunk) in chunks.into_iter().enumerate() {
        let chunk = chunk.map_err(Into::<StreamError>::into)?;
        let chunk: &SeqDb = chunk.borrow();
        let chunk_residues = chunk.total_residues();
        chunks_seen = i + 1;
        if i < resume_from {
            // Checkpoint resume: replay the cursor without sweeping, and
            // reject a chunking that no longer lines up.
            skipped_seqs += chunk.len() as u32;
            residues_done += chunk_residues;
            if i + 1 == resume_from && skipped_seqs != state.seq_base {
                return Err(CheckpointError::Mismatch(format!(
                    "resumed chunking replays {skipped_seqs} sequences where the checkpoint \
                     recorded {}; was the chunk size or input changed?",
                    state.seq_base
                ))
                .into());
            }
            continue;
        }
        if let Some(obs) = observer.as_mut() {
            obs(&ChunkProgress {
                index: i,
                seqs_done: state.seq_base as usize,
                residues_done,
                chunk_seqs: chunk.len(),
                chunk_residues,
            })
            .map_err(StreamError::Cancelled)?;
        }
        if trace.is_on() {
            trace.add("stream", "chunks", 1);
            trace.add("stream", "seqs_in", chunk.len() as u64);
            trace.add("stream", "residues_in", chunk_residues);
            // Length-bin shape of this chunk — what the batched
            // scheduler re-bins per chunk; a high bin count per chunk
            // means more partially-filled batches.
            trace.add("stream", "len_bins", length_bins(chunk).len() as u64);
        }
        let res = pipe.search_traced(chunk, plan, trace)?.result;
        for (acc, st) in state.stages.iter_mut().zip(&res.stages) {
            acc.seqs_in += st.seqs_in;
            acc.seqs_out += st.seqs_out;
            acc.residues_in += st.residues_in;
            acc.time_s += st.time_s;
        }
        // The database size as far as it is known: pinned, or what has
        // streamed so far. The second only grows, so a hit the final
        // scale will report is never cut here.
        let db_size = total_seqs.unwrap_or(state.seq_base as usize + chunk.len());
        for mut h in res.hits {
            // Rescale E-value from the chunk size to the database.
            h.evalue = h.pvalue * db_size as f64;
            h.seqid += state.seq_base;
            if ckpt.is_some() {
                // Posteriors are not persisted (see StreamCheckpoint), so
                // drop them on the live path too: a live sweep and a
                // resumed one must agree bit for bit.
                h.posterior = None;
            }
            if h.evalue <= pipe.config.report_evalue {
                state.hits.push(h);
            }
        }
        state.seq_base += chunk.len() as u32;
        residues_done += chunk_residues;
        state.chunks_done = i + 1;
        if let Some((path, _)) = ckpt {
            state.save(path)?;
        }
    }
    if chunks_seen < resume_from {
        // The stream ended before reaching the checkpoint's cursor (a
        // coarser chunking): the in-loop cross-check never ran, and the
        // saved partial state must not be reported as the whole sweep.
        return Err(CheckpointError::Mismatch(format!(
            "resumed chunking ends at chunk {chunks_seen}, before the checkpoint's cursor \
             (chunk {resume_from}, {} sequences); was the chunk size or input changed?",
            state.seq_base
        ))
        .into());
    }
    if trace.is_on() {
        // Recorded once per sweep: the process high-water mark. For a
        // constant-memory streamed sweep this is bounded by the chunk
        // size, not the database size.
        if let Some(rss) = h3w_trace::peak_rss_bytes() {
            trace.add("stream", "peak_rss_bytes", rss);
        }
    }
    let StreamCheckpoint {
        stages,
        mut hits,
        seq_base,
        ..
    } = state;
    let db_size = total_seqs.unwrap_or(seq_base as usize);
    if total_seqs.is_none() {
        // The stream has ended, so its length is the scale.
        for h in &mut hits {
            h.evalue = h.pvalue * db_size as f64;
        }
        hits.retain(|h| h.evalue <= pipe.config.report_evalue);
    }
    hits.sort_by(|a, b| a.evalue.total_cmp(&b.evalue));
    Ok(StreamReport {
        result: PipelineResult::new(stages, hits, db_size),
        resumed_chunks: resume_from,
    })
}

/// Sweep a [`SeqSource`] in chunks of at most `max_residues` residues
/// under `plan`, in memory bounded by the chunk size. The stream is the
/// database: the source is read once, through `chunks` only (never asked
/// for `n_seqs` or `identity`, which cost a FASTA file a pass of their
/// own), E-values scale by the number of sequences it delivered, and hits
/// are bit-identical to an unchunked [`Pipeline::search`] over the
/// materialized database.
pub fn search_source(
    pipe: &Pipeline,
    source: &dyn SeqSource,
    plan: &ExecPlan,
    max_residues: u64,
    trace: &Trace,
) -> Result<PipelineResult, StreamError> {
    search_chunks(
        pipe,
        source.chunks(max_residues),
        None,
        plan,
        StreamOptions::default(),
        trace,
    )
    .map(|r| r.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_seqdb::gen::{generate, DbGenSpec};

    fn setup() -> (Pipeline, SeqDb) {
        let core = synthetic_model(50, 77, &BuildParams::default());
        let pipe = Pipeline::prepare(&core, PipelineConfig::default(), 3);
        let mut spec = DbGenSpec::envnr_like().scaled(2e-4);
        spec.homolog_fraction = 0.02;
        let db = generate(&spec, Some(&core), 5);
        (pipe, db)
    }

    /// The database as chunks of at most `max_residues` residues.
    fn chunks(db: &SeqDb, max_residues: u64) -> Vec<SeqDb> {
        db.chunks(max_residues).collect::<Result<_, _>>().unwrap()
    }

    /// Sweep owned chunks on the CPU plan, optionally checkpointed.
    fn sweep(
        pipe: &Pipeline,
        chunks: Vec<SeqDb>,
        total_seqs: usize,
        checkpoint: Option<(&Path, u64)>,
    ) -> Result<PipelineResult, StreamError> {
        let options = StreamOptions {
            checkpoint,
            observer: None,
        };
        search_chunks(
            pipe,
            chunks.into_iter().map(Ok::<_, StreamError>),
            Some(total_seqs),
            &ExecPlan::Cpu,
            options,
            &Trace::off(),
        )
        .map(|r| r.result)
    }

    #[test]
    fn observer_sees_progress_and_can_cancel() {
        let (pipe, db) = setup();
        let shards: Vec<SeqDb> = chunks(&db, 15_000);
        assert!(shards.len() >= 3);
        // Observe every boundary: progress is monotone and complete.
        let mut seen = Vec::new();
        let mut obs = |p: &ChunkProgress| {
            seen.push((p.index, p.seqs_done, p.residues_done));
            Ok(())
        };
        let observed = |obs: ChunkObserver<'_>| {
            let options = StreamOptions {
                checkpoint: None,
                observer: Some(obs),
            };
            search_chunks(
                &pipe,
                shards.iter().map(Ok::<_, StreamError>),
                Some(db.len()),
                &ExecPlan::Cpu,
                options,
                &Trace::off(),
            )
        };
        observed(&mut obs).unwrap();
        assert_eq!(seen.len(), shards.len());
        assert_eq!(seen[0], (0, 0, 0));
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        // Cancel at the second boundary: typed Cancelled error.
        let mut calls = 0usize;
        let mut obs = |_: &ChunkProgress| {
            calls += 1;
            if calls == 2 {
                Err("deadline".to_string())
            } else {
                Ok(())
            }
        };
        let err = observed(&mut obs).unwrap_err();
        assert!(matches!(err, StreamError::Cancelled(ref why) if why == "deadline"));
    }

    fn tmp_ckpt(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("h3w-stream-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sweep.ckpt")
    }

    fn expect_ckpt(err: StreamError) -> CheckpointError {
        match err {
            StreamError::Checkpoint(e) => e,
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_rejects_changed_chunking_and_scale() {
        let (pipe, db) = setup();
        let all: Vec<SeqDb> = chunks(&db, 15_000);
        let hash = h3w_seqdb::content_hash(&db);
        let path = tmp_ckpt("mismatch");
        let _ = std::fs::remove_file(&path);
        let partial: Vec<SeqDb> = all.iter().take(2).cloned().collect();
        sweep(&pipe, partial, db.len(), Some((&path, hash))).unwrap();
        let ck = StreamCheckpoint::load(&path, ExecPlan::Cpu.stage_labels()).unwrap();
        let cursor = (ck.chunks_done, ck.seq_base as usize, ck.db_hash);
        assert_eq!(cursor, (2, all[0].len() + all[1].len(), hash));
        // Different database size: a different sweep.
        let err = sweep(&pipe, all.clone(), db.len() + 1, Some((&path, hash))).unwrap_err();
        assert!(matches!(expect_ckpt(err), CheckpointError::Mismatch(_)));
        // Different chunk bound: the skip cursor no longer lines up.
        let rechunked: Vec<SeqDb> = chunks(&db, 4_000);
        let err = sweep(&pipe, rechunked, db.len(), Some((&path, hash))).unwrap_err();
        assert!(matches!(expect_ckpt(err), CheckpointError::Mismatch(_)));
        // A coarser bound: the whole database is one chunk, so the stream
        // ends before it reaches the two-chunk cursor. The saved partial
        // state must not come back as the result of the whole sweep.
        let coarse: Vec<SeqDb> = chunks(&db, 100_000_000);
        assert_eq!(coarse.len(), 1);
        let err = sweep(&pipe, coarse, db.len(), Some((&path, hash))).unwrap_err();
        assert!(matches!(expect_ckpt(err), CheckpointError::Mismatch(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_rejects_database_drift() {
        let (pipe, db) = setup();
        let all: Vec<SeqDb> = chunks(&db, 15_000);
        let hash = h3w_seqdb::content_hash(&db);
        let path = tmp_ckpt("drift");
        let _ = std::fs::remove_file(&path);
        let partial: Vec<SeqDb> = all.iter().take(2).cloned().collect();
        sweep(&pipe, partial, db.len(), Some((&path, hash))).unwrap();
        // Same size and chunking, different database content: one residue
        // changed somewhere. The hash guard catches what the cursor
        // arithmetic cannot.
        let mut mutated = db.clone();
        mutated.seqs[0].residues[0] = (mutated.seqs[0].residues[0] + 1) % 20;
        let drifted = h3w_seqdb::content_hash(&mutated);
        assert_ne!(hash, drifted);
        let err = sweep(&pipe, all.clone(), db.len(), Some((&path, drifted))).unwrap_err();
        match expect_ckpt(err) {
            CheckpointError::DatabaseDrift { expected, found } => {
                assert_eq!(expected, hash);
                assert_eq!(found, drifted);
            }
            other => panic!("expected DatabaseDrift, got {other:?}"),
        }
        // The original database still resumes cleanly.
        sweep(&pipe, all, db.len(), Some((&path, hash))).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
