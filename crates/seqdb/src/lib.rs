//! # h3w-seqdb — sequence database substrate
//!
//! Target sequences for the `hmmer3-warp` reproduction: digitized protein
//! sequences ([`seq`]), a FASTA reader/writer ([`fasta`]), seeded synthetic
//! databases calibrated to the paper's Swissprot / Env_nr workloads
//! ([`gen`]), the 5-bit/6-per-word residue packing of Fig. 6 ([`pack`]),
//! the crash-safe on-disk packed format ([`diskdb`]), the unified
//! bounded-memory streaming ingest abstraction ([`source`]), and
//! workload statistics ([`stats`]).

pub mod diskdb;
pub mod fasta;
pub mod gen;
pub mod pack;
pub mod seq;
pub mod source;
pub mod stats;

pub use diskdb::{
    content_hash, length_bins, ContentHasher, DbFormatError, DiskDb, DiskDbSummary, DiskDbWriter,
    LengthBin,
};
pub use gen::{gen_chunks, gen_identity, generate, DbGenSpec};
pub use pack::{pack_seq, unpack_slot, PackedDb, PackedSubset, PackedView, RESIDUES_PER_WORD};
pub use seq::{DigitalSeq, SeqDb};
pub use source::{Chunker, FastaFileSource, GenSource, SeqSource, SourceError};
pub use stats::{db_stats, DbStats};
