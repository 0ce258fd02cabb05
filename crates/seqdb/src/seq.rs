//! Digital sequences and in-memory databases.

use h3w_hmm::alphabet::{digitize_seq, AlphabetError, Residue};

/// One digitized protein sequence with its header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigitalSeq {
    /// FASTA identifier (first word of the header line).
    pub name: String,
    /// Optional free-text description (remainder of the header line).
    pub desc: String,
    /// Residue codes, `0..=25` (standard + degenerate), never gaps.
    pub residues: Vec<Residue>,
}

impl DigitalSeq {
    /// Digitize from text.
    pub fn from_text(name: &str, text: &str) -> Result<DigitalSeq, AlphabetError> {
        Ok(DigitalSeq {
            name: name.to_string(),
            desc: String::new(),
            residues: digitize_seq(text)?,
        })
    }

    /// Sequence length in residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence has no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }
}

/// An in-memory sequence database (the search target set).
#[derive(Debug, Clone, Default)]
pub struct SeqDb {
    /// Database label, e.g. `"swissprot-like(x0.01)"`.
    pub name: String,
    /// All target sequences.
    pub seqs: Vec<DigitalSeq>,
}

impl SeqDb {
    /// Create an empty database with a label.
    pub fn new(name: impl Into<String>) -> SeqDb {
        SeqDb {
            name: name.into(),
            seqs: Vec::new(),
        }
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when the database holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Total residue count across all sequences (the number of DP rows the
    /// paper's kernels must process).
    pub fn total_residues(&self) -> u64 {
        self.seqs.iter().map(|s| s.len() as u64).sum()
    }

    /// Longest sequence length (drives device buffer sizing).
    pub fn max_len(&self) -> usize {
        self.seqs.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Mean sequence length.
    pub fn mean_len(&self) -> f64 {
        if self.seqs.is_empty() {
            0.0
        } else {
            self.total_residues() as f64 / self.seqs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_hmm::alphabet::textize_seq;

    #[test]
    fn from_text_and_back() {
        let s = DigitalSeq::from_text("s1", "MKVLAY").unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(textize_seq(&s.residues).unwrap(), "MKVLAY");
    }

    #[test]
    fn db_statistics() {
        let mut db = SeqDb::new("t");
        db.seqs.push(DigitalSeq::from_text("a", "MKV").unwrap());
        db.seqs.push(DigitalSeq::from_text("b", "MKVLAYW").unwrap());
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_residues(), 10);
        assert_eq!(db.max_len(), 7);
        assert!((db.mean_len() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_db_stats() {
        let db = SeqDb::new("e");
        assert!(db.is_empty());
        assert_eq!(db.max_len(), 0);
        assert_eq!(db.mean_len(), 0.0);
    }
}
