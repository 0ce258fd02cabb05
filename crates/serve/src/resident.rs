//! The resident database: a packed `.h3wdb` file loaded once at startup,
//! validated, unpacked into shards, and shared read-only across every
//! query thread for the life of the daemon.
//!
//! Shard boundaries are where per-query deadlines are enforced (a sweep
//! checks the clock between shards, never mid-kernel), so the shard size
//! bounds deadline overshoot. Shards hold whole sequences and E-values
//! are scaled by the *full* database size, so the sharded sweep reports
//! bit-identical hits to a single-pass one.

use h3w_seqdb::{DbFormatError, DiskDb, LengthBin, SeqDb};
use std::path::Path;

/// Default shard granularity (residues). Small enough that a deadline
/// check fires every few milliseconds of sweep on commodity hosts.
pub const DEFAULT_SHARD_RESIDUES: u64 = 1 << 20;

/// The validated, unpacked, shard-split database a server holds.
#[derive(Debug)]
pub struct ResidentDb {
    /// Database name (from the packed file).
    pub name: String,
    /// Content hash of the logical database ([`h3w_seqdb::content_hash`]).
    pub content_hash: u64,
    /// Total sequence count — the E-value scale for every query.
    pub total_seqs: usize,
    /// Total residue count.
    pub total_residues: u64,
    /// Length-bin histogram carried from the packed index.
    pub bins: Vec<LengthBin>,
    /// The database split into bounded-residue shards (whole sequences;
    /// concatenation in order reproduces the full database exactly).
    pub shards: Vec<SeqDb>,
}

impl ResidentDb {
    /// Load and validate a packed `.h3wdb` file, splitting into shards of
    /// at most `shard_residues` residues (0 picks the default). All
    /// corruption surfaces as a typed [`DbFormatError`]; this never
    /// panics on hostile bytes.
    pub fn load(path: &Path, shard_residues: u64) -> Result<ResidentDb, DbFormatError> {
        Ok(Self::from_disk(DiskDb::load(path)?, shard_residues))
    }

    /// Build from an already-loaded [`DiskDb`], which is consumed: each
    /// block of packed words is freed as soon as its shard is decoded.
    pub fn from_disk(disk: DiskDb, shard_residues: u64) -> ResidentDb {
        ResidentDb {
            name: disk.name.clone(),
            content_hash: disk.content_hash,
            total_seqs: disk.n_seqs(),
            total_residues: disk.total_residues,
            bins: disk.bins.clone(),
            shards: disk.shards(shard_cap(shard_residues)),
        }
    }
}

/// The shard cap a `shard_residues` argument asks for (0: the default).
fn shard_cap(shard_residues: u64) -> u64 {
    if shard_residues == 0 {
        DEFAULT_SHARD_RESIDUES
    } else {
        shard_residues
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use h3w_seqdb::{content_hash, DigitalSeq, DiskDbWriter};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `db` as the daemon meets it: written by `DiskDbWriter` (what
    /// `dbgen` runs), then [`ResidentDb::load`]ed.
    pub(crate) fn resident(db: &SeqDb, shard_residues: u64) -> ResidentDb {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "h3w-resident-{}-{}.h3wdb",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w = DiskDbWriter::create(&path, &db.name).unwrap();
        for s in &db.seqs {
            w.push(s).unwrap();
        }
        w.finish().unwrap();
        let res = ResidentDb::load(&path, shard_residues).unwrap();
        std::fs::remove_file(&path).unwrap();
        res
    }

    fn db(n: usize, len: usize) -> SeqDb {
        let mut db = SeqDb::new("resident-test");
        for i in 0..n {
            db.seqs.push(DigitalSeq {
                name: format!("s{i}"),
                desc: String::new(),
                residues: (0..len).map(|j| ((i + j) % 20) as u8).collect(),
            });
        }
        db
    }

    #[test]
    fn shards_concatenate_to_the_full_database() {
        let src = db(23, 37);
        let res = resident(&src, 100);
        assert!(res.shards.len() > 1, "shard size forces a split");
        assert_eq!(res.total_seqs, 23);
        let rejoined: Vec<_> = res
            .shards
            .iter()
            .flat_map(|s| s.seqs.iter().cloned())
            .collect();
        assert_eq!(rejoined, src.seqs);
        assert_eq!(res.content_hash, content_hash(&src));
    }

    #[test]
    fn zero_shard_size_picks_the_default() {
        let res = resident(&db(3, 10), 0);
        assert_eq!(res.shards.len(), 1);
        assert_eq!(res.total_residues, 30);
    }
}
