//! Helpers shared by the integration suites: the configuration lattice
//! and FASTA chunking.
#![allow(dead_code)]

pub mod lattice;

use hmmer3_warp::seqdb::fasta::{ReadSeqError, SeqReader};
use hmmer3_warp::seqdb::{Chunker, SeqDb};

/// FASTA text as chunks of at most `max_residues` residues, through the
/// record reader and chunker that `FastaFileSource` composes.
pub fn fasta_chunks(text: &str, max_residues: u64) -> Result<Vec<SeqDb>, ReadSeqError> {
    Chunker::new("chunk", SeqReader::new(text.as_bytes()), max_residues).collect()
}
