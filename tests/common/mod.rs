//! Helpers shared by the integration suites: the configuration lattice
//! and FASTA chunking.
#![allow(dead_code)]

pub mod lattice;

use hmmer3_warp::seqdb::{FastaSource, SeqDb, SeqSource, SourceError};

/// FASTA text as chunks of at most `max_residues` residues, through the
/// chunker every source shares.
pub fn fasta_chunks(text: &str, max_residues: u64) -> Result<Vec<SeqDb>, SourceError> {
    FastaSource::new("chunk", text)?
        .chunks(max_residues)
        .collect()
}
