//! Helpers shared by the integration suites that stream a database in
//! chunks.
#![allow(dead_code)]

use hmmer3_warp::pipeline::{
    search_chunks, ExecPlan, Pipeline, PipelineResult, StreamError, StreamOptions,
};
use hmmer3_warp::seqdb::{FastaSource, SeqDb, SeqSource, SourceError};
use std::path::Path;

/// FASTA text as chunks of at most `max_residues` residues, through the
/// chunker every source shares.
pub fn fasta_chunks(text: &str, max_residues: u64) -> Result<Vec<SeqDb>, SourceError> {
    FastaSource::new("chunk", text)?
        .chunks(max_residues)
        .collect()
}

/// Sweep owned chunks under `plan` through `search_chunks`, checkpointed
/// to `checkpoint` (path, drift guard) when one is given. The trace is
/// the `H3W_PROFILE`-switched one, so the `profiling` CI job arms this
/// path as it does `Pipeline::search`.
pub fn sweep_chunks(
    pipe: &Pipeline,
    chunks: Vec<SeqDb>,
    total_seqs: usize,
    plan: &ExecPlan,
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
        plan,
        options,
        &Pipeline::env_trace(),
    )
    .map(|r| r.result)
}
