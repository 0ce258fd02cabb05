//! Residue packing (paper §III-A, Fig. 6).
//!
//! Each residue code fits in 5 bits (codes 0..=28), so 6 consecutive
//! residues pack into one 32-bit word — the intrinsic data type the GPU
//! reads from global memory — cutting sequence bandwidth by ~37% versus
//! byte-per-residue. Unused trailing slots of a sequence's final word are
//! filled with the flag code 31 ([`PAD_CODE`]), which the kernels use as a
//! loop terminator (the "wasteful residues" drawn red in Figs. 6 and 8).
//!
//! Bit layout: residue `j` of a word occupies bits `5j .. 5j+5`
//! (low-order first); bits 30–31 are always zero.

use crate::seq::SeqDb;
use h3w_hmm::alphabet::{Residue, PAD_CODE};

/// Residues per packed 32-bit word.
pub const RESIDUES_PER_WORD: usize = 6;

/// One word with every slot holding [`PAD_CODE`] (an empty sequence's
/// only word); bits 30-31 zero.
pub(crate) const PAD_WORD: u32 = 0x3fff_ffff;

/// Words a sequence of `len` residues occupies: an empty sequence still
/// gets one all-pad word.
#[inline]
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(RESIDUES_PER_WORD).max(1)
}

/// Pack up to six residues into one word, padding the unused high slots
/// with [`PAD_CODE`].
#[inline]
pub(crate) fn pack_word(chunk: &[Residue]) -> u32 {
    debug_assert!(chunk.len() <= RESIDUES_PER_WORD);
    let mut word = 0u32;
    for j in 0..RESIDUES_PER_WORD {
        let code = chunk.get(j).copied().unwrap_or(PAD_CODE);
        debug_assert!(code < 32);
        word |= (code as u32) << (5 * j);
    }
    word
}

/// The packed words of one sequence, in order: [`pack_seq`] without the
/// vector, for writers that serialize words as they are made.
pub(crate) fn packed_words(residues: &[Residue]) -> impl Iterator<Item = u32> + '_ {
    let pad = residues.is_empty().then_some(PAD_WORD);
    residues.chunks(RESIDUES_PER_WORD).map(pack_word).chain(pad)
}

/// Pack one digital sequence into words, padding the tail with [`PAD_CODE`].
pub fn pack_seq(residues: &[Residue]) -> Vec<u32> {
    packed_words(residues).collect()
}

/// Extract residue slot `j` (0..6) from a packed word.
#[inline(always)]
pub fn unpack_slot(word: u32, j: usize) -> Residue {
    ((word >> (5 * j)) & 0x1f) as Residue
}

/// All six slots of a packed word, in residue order. The 5-bit fields
/// are spread to byte positions inside one `u64` (the upper three fields
/// move up 9 bits, then the second and third of each triple 3 and 6), so
/// a word costs a dozen ALU operations and one short copy instead of six
/// shift-mask-store rounds.
#[inline(always)]
pub(crate) fn unpack_word(word: u32) -> [Residue; RESIDUES_PER_WORD] {
    [
        unpack_slot(word, 0),
        unpack_slot(word, 1),
        unpack_slot(word, 2),
        unpack_slot(word, 3),
        unpack_slot(word, 4),
        unpack_slot(word, 5),
    ]
}

/// A whole database packed for device transfer: one flat word buffer plus
/// per-sequence offsets and lengths (the layout Fig. 8's grid consumes).
#[derive(Debug, Clone)]
pub struct PackedDb {
    /// All packed words, sequences concatenated in database order.
    pub words: Vec<u32>,
    /// Word offset of each sequence within `words`.
    pub offsets: Vec<u32>,
    /// Residue length of each sequence.
    pub lengths: Vec<u32>,
}

/// A borrowed, zero-copy reading of packed sequence data — either a whole
/// [`PackedDb`] or an index subset of one ([`PackedSubset`]).
///
/// The device kernels consume this instead of `&PackedDb`, so routing the
/// survivors of one pipeline stage into the next is a gather of `u32`
/// offsets/lengths rather than a clone-and-repack of the residues
/// themselves: the word buffer is always the original database's.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    /// Packed words (the *parent* buffer; offsets index into it).
    pub words: &'a [u32],
    /// Word offset of each sequence within `words`.
    pub offsets: &'a [u32],
    /// Residue length of each sequence.
    pub lengths: &'a [u32],
}

impl<'a> PackedView<'a> {
    /// Number of sequences in the view.
    #[inline]
    pub fn n_seqs(&self) -> usize {
        self.lengths.len()
    }

    /// True when the view holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Total real residues in the view.
    pub fn total_residues(&self) -> u64 {
        self.lengths.iter().map(|&l| l as u64).sum()
    }

    /// Total residue *slots* including pad waste. Computed from lengths
    /// (not `words.len()`, which is the parent buffer for a subset).
    pub fn padded_residues(&self) -> u64 {
        self.lengths
            .iter()
            .map(|&l| (l as u64).div_ceil(RESIDUES_PER_WORD as u64).max(1))
            .sum::<u64>()
            * RESIDUES_PER_WORD as u64
    }

    /// Random-access decode of residue `i` of sequence `seqid`.
    ///
    /// Out-of-range positions return [`PAD_CODE`], mirroring what a kernel
    /// reading past a sequence tail observes.
    #[inline]
    pub fn residue(&self, seqid: usize, i: usize) -> Residue {
        if i >= self.lengths[seqid] as usize {
            return PAD_CODE;
        }
        let word = self.words[self.offsets[seqid] as usize + i / RESIDUES_PER_WORD];
        unpack_slot(word, i % RESIDUES_PER_WORD)
    }

    /// Iterate the real residues of sequence `seqid`.
    pub fn iter_seq(&self, seqid: usize) -> impl Iterator<Item = Residue> + 'a {
        let len = self.lengths[seqid] as usize;
        let off = self.offsets[seqid] as usize;
        let words = self.words;
        (0..len)
            .map(move |i| unpack_slot(words[off + i / RESIDUES_PER_WORD], i % RESIDUES_PER_WORD))
    }

    /// Decode sequence `seqid` into `dst`, which must be exactly its
    /// length: a whole word (six residues) at a time, and only the last,
    /// partly padded word slot by slot.
    fn decode_seq(&self, seqid: usize, dst: &mut [Residue]) {
        let off = self.offsets[seqid] as usize;
        let words = &self.words[off..off + dst.len().div_ceil(RESIDUES_PER_WORD)];
        let mut sixes = dst.chunks_exact_mut(RESIDUES_PER_WORD);
        for (six, &w) in (&mut sixes).zip(words) {
            six.copy_from_slice(&unpack_word(w));
        }
        if let Some(&w) = words.last() {
            for (j, r) in sixes.into_remainder().iter_mut().enumerate() {
                *r = unpack_slot(w, j);
            }
        }
    }

    /// Append the real residues of sequence `seqid` to `out`.
    pub fn unpack_seq_into(&self, seqid: usize, out: &mut Vec<Residue>) {
        let start = out.len();
        out.resize(start + self.lengths[seqid] as usize, 0);
        self.decode_seq(seqid, &mut out[start..]);
    }

    /// Unpack sequence `seqid` into a fresh vector of exactly its length.
    pub fn unpack_seq(&self, seqid: usize) -> Vec<Residue> {
        let mut out = vec![0; self.lengths[seqid] as usize];
        self.decode_seq(seqid, &mut out);
        out
    }
}

impl<'a> From<&'a PackedDb> for PackedView<'a> {
    fn from(db: &'a PackedDb) -> PackedView<'a> {
        db.view()
    }
}

impl<'a> From<&'a PackedSubset<'a>> for PackedView<'a> {
    fn from(sub: &'a PackedSubset<'a>) -> PackedView<'a> {
        sub.view()
    }
}

/// An index subset of a [`PackedDb`]: survivor routing between pipeline
/// stages without cloning residues. Owns only the gathered `u32`
/// offset/length rows plus the parent-id map; the packed words stay
/// borrowed from the parent database.
#[derive(Debug, Clone)]
pub struct PackedSubset<'a> {
    words: &'a [u32],
    offsets: Vec<u32>,
    lengths: Vec<u32>,
    parent_ids: Vec<u32>,
}

impl<'a> PackedSubset<'a> {
    /// Number of sequences in the subset.
    #[inline]
    pub fn n_seqs(&self) -> usize {
        self.lengths.len()
    }

    /// True when the subset holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// The full parent-id map (subset order).
    pub fn parent_ids(&self) -> &[u32] {
        &self.parent_ids
    }

    /// Borrow the subset as a kernel-consumable view.
    pub fn view(&self) -> PackedView<'_> {
        PackedView {
            words: self.words,
            offsets: &self.offsets,
            lengths: &self.lengths,
        }
    }
}

impl PackedDb {
    /// Pack every sequence of a database.
    pub fn from_db(db: &SeqDb) -> PackedDb {
        let mut words = Vec::new();
        let mut offsets = Vec::with_capacity(db.len());
        let mut lengths = Vec::with_capacity(db.len());
        for seq in &db.seqs {
            offsets.push(words.len() as u32);
            lengths.push(seq.len() as u32);
            words.extend(pack_seq(&seq.residues));
        }
        PackedDb {
            words,
            offsets,
            lengths,
        }
    }

    /// Number of sequences.
    #[inline]
    pub fn n_seqs(&self) -> usize {
        self.lengths.len()
    }

    /// True when the packed database holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Total real residues.
    pub fn total_residues(&self) -> u64 {
        self.lengths.iter().map(|&l| l as u64).sum()
    }

    /// Total residue *slots* including pad waste.
    pub fn padded_residues(&self) -> u64 {
        self.words.len() as u64 * RESIDUES_PER_WORD as u64
    }

    /// Fraction of slots wasted on padding (the red cells of Fig. 6).
    pub fn waste_fraction(&self) -> f64 {
        let padded = self.padded_residues();
        if padded == 0 {
            0.0
        } else {
            (padded - self.total_residues()) as f64 / padded as f64
        }
    }

    /// Device global-memory footprint of the packed residue stream, bytes.
    pub fn bytes(&self) -> u64 {
        (self.words.len() * 4 + self.offsets.len() * 4 + self.lengths.len() * 4) as u64
    }

    /// Record the packing counters (sequences, bytes, real vs. padded
    /// residue slots) into a telemetry trace at `path`. No-op — not even
    /// a counter read — when the trace is disabled.
    pub fn record_into(&self, trace: &h3w_trace::Trace, path: &str) {
        if !trace.is_on() {
            return;
        }
        trace.add(path, "seqs", self.n_seqs() as u64);
        trace.add(path, "bytes_packed", self.bytes());
        trace.add(path, "residues", self.total_residues());
        trace.add(path, "padded_residues", self.padded_residues());
    }

    /// Random-access decode of residue `i` of sequence `seqid`.
    ///
    /// Out-of-range positions return [`PAD_CODE`], mirroring what a kernel
    /// reading past a sequence tail observes.
    #[inline]
    pub fn residue(&self, seqid: usize, i: usize) -> Residue {
        if i >= self.lengths[seqid] as usize {
            return PAD_CODE;
        }
        let word = self.words[self.offsets[seqid] as usize + i / RESIDUES_PER_WORD];
        unpack_slot(word, i % RESIDUES_PER_WORD)
    }

    /// Iterate the real residues of sequence `seqid`.
    pub fn iter_seq(&self, seqid: usize) -> impl Iterator<Item = Residue> + '_ {
        let len = self.lengths[seqid] as usize;
        let off = self.offsets[seqid] as usize;
        (0..len).map(move |i| {
            unpack_slot(
                self.words[off + i / RESIDUES_PER_WORD],
                i % RESIDUES_PER_WORD,
            )
        })
    }

    /// Unpack sequence `seqid` into a fresh vector.
    pub fn unpack_seq(&self, seqid: usize) -> Vec<Residue> {
        self.view().unpack_seq(seqid)
    }

    /// Borrow the whole database as a kernel-consumable view.
    pub fn view(&self) -> PackedView<'_> {
        PackedView {
            words: &self.words,
            offsets: &self.offsets,
            lengths: &self.lengths,
        }
    }

    /// Zero-copy index subset: sequence `i` of the result is sequence
    /// `ids[i]` of `self`, backed by the same word buffer.
    pub fn subset(&self, ids: &[u32]) -> PackedSubset<'_> {
        let mut offsets = Vec::with_capacity(ids.len());
        let mut lengths = Vec::with_capacity(ids.len());
        for &id in ids {
            offsets.push(self.offsets[id as usize]);
            lengths.push(self.lengths[id as usize]);
        }
        PackedSubset {
            words: &self.words,
            offsets,
            lengths,
            parent_ids: ids.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DigitalSeq;

    #[test]
    fn pack_round_trip_exact_multiple() {
        let res: Vec<Residue> = (0..12).map(|i| (i % 20) as Residue).collect();
        let words = pack_seq(&res);
        assert_eq!(words.len(), 2);
        for (i, &r) in res.iter().enumerate() {
            assert_eq!(
                unpack_slot(words[i / RESIDUES_PER_WORD], i % RESIDUES_PER_WORD),
                r
            );
        }
    }

    #[test]
    fn tail_padded_with_flag() {
        let res: Vec<Residue> = vec![1, 2, 3, 4]; // 4 residues → 2 pad slots
        let words = pack_seq(&res);
        assert_eq!(words.len(), 1);
        assert_eq!(unpack_slot(words[0], 4), PAD_CODE);
        assert_eq!(unpack_slot(words[0], 5), PAD_CODE);
    }

    #[test]
    fn top_two_bits_unused() {
        let res: Vec<Residue> = vec![28; 18];
        for w in pack_seq(&res) {
            assert_eq!(w >> 30, 0);
        }
    }

    #[test]
    fn empty_sequence_gets_one_pad_word() {
        let words = pack_seq(&[]);
        assert_eq!(words.len(), 1);
        assert!((0..6).all(|j| unpack_slot(words[0], j) == PAD_CODE));
    }

    fn sample_db() -> SeqDb {
        let mut db = SeqDb::new("t");
        for (n, t) in [("a", "MKVLAYW"), ("b", "AC"), ("c", "MKVLAYWQRSTACDEFGH")] {
            db.seqs.push(DigitalSeq::from_text(n, t).unwrap());
        }
        db
    }

    #[test]
    fn packed_db_round_trips() {
        let db = sample_db();
        let packed = PackedDb::from_db(&db);
        assert_eq!(packed.n_seqs(), 3);
        for (i, seq) in db.seqs.iter().enumerate() {
            assert_eq!(packed.unpack_seq(i), seq.residues, "seq {i}");
        }
    }

    #[test]
    fn word_wise_unpack_matches_slot_wise_at_every_tail_length() {
        for len in 0..=40usize {
            let res: Vec<Residue> = (0..len).map(|i| ((i * 5 + len) % 26) as Residue).collect();
            let mut db = SeqDb::new("t");
            for name in ["before", "probe", "after"] {
                db.seqs.push(DigitalSeq {
                    name: name.into(),
                    desc: String::new(),
                    residues: if name == "probe" {
                        res.clone()
                    } else {
                        vec![3; 7]
                    },
                });
            }
            let packed = PackedDb::from_db(&db);
            assert_eq!(
                packed.words,
                db.seqs
                    .iter()
                    .flat_map(|s| pack_seq(&s.residues))
                    .collect::<Vec<_>>()
            );
            let view = packed.view();
            assert_eq!(view.unpack_seq(1), res, "len {len}");
            assert_eq!(view.unpack_seq(1).capacity(), len, "len {len}");
            assert_eq!(view.iter_seq(1).collect::<Vec<_>>(), res, "len {len}");
            // Appends after what is already there, and nothing else.
            for held in 0..=7usize {
                let before: Vec<Residue> = (0..held).map(|i| 9 + i as Residue).collect();
                let mut out = before.clone();
                view.unpack_seq_into(1, &mut out);
                view.unpack_seq_into(2, &mut out);
                assert_eq!(out[..held], before[..], "len {len} held {held}");
                assert_eq!(out[held..held + len], res[..], "len {len} held {held}");
                assert_eq!(out[held + len..], [3; 7], "len {len} held {held}");
            }
        }
    }

    #[test]
    fn random_access_matches_iter_and_pads() {
        let db = sample_db();
        let packed = PackedDb::from_db(&db);
        assert_eq!(packed.residue(0, 0), db.seqs[0].residues[0]);
        assert_eq!(packed.residue(1, 1), db.seqs[1].residues[1]);
        assert_eq!(packed.residue(1, 2), PAD_CODE); // past end
    }

    #[test]
    fn waste_accounting() {
        let db = sample_db(); // lengths 7, 2, 18 → words 2,1,3 → slots 36, real 27
        let packed = PackedDb::from_db(&db);
        assert_eq!(packed.total_residues(), 27);
        assert_eq!(packed.padded_residues(), 36);
        assert!((packed.waste_fraction() - 9.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_counts_all_buffers() {
        let db = sample_db();
        let packed = PackedDb::from_db(&db);
        assert_eq!(packed.bytes(), (6 * 4 + 3 * 4 + 3 * 4) as u64);
    }

    #[test]
    fn full_view_matches_db() {
        let db = sample_db();
        let packed = PackedDb::from_db(&db);
        let view = packed.view();
        assert_eq!(view.n_seqs(), packed.n_seqs());
        assert_eq!(view.total_residues(), packed.total_residues());
        assert_eq!(view.padded_residues(), packed.padded_residues());
        for i in 0..packed.n_seqs() {
            assert_eq!(view.unpack_seq(i), packed.unpack_seq(i));
        }
        assert_eq!(view.residue(1, 2), PAD_CODE);
    }

    #[test]
    fn subset_views_share_words_and_remap_ids() {
        let db = sample_db();
        let packed = PackedDb::from_db(&db);
        let sub = packed.subset(&[2, 0]);
        assert_eq!(sub.n_seqs(), 2);
        assert_eq!(sub.parent_ids(), &[2, 0]);
        let view = sub.view();
        // Same underlying word buffer — no residues were copied.
        assert!(std::ptr::eq(view.words.as_ptr(), packed.words.as_ptr()));
        assert_eq!(view.unpack_seq(0), db.seqs[2].residues);
        assert_eq!(view.unpack_seq(1), db.seqs[0].residues);
        assert_eq!(
            view.total_residues(),
            (db.seqs[2].len() + db.seqs[0].len()) as u64
        );
        // Padded accounting covers only the subset's own words.
        assert_eq!(view.padded_residues(), (3 + 2) * 6);
    }

    #[test]
    fn empty_subset_is_empty_view() {
        let db = sample_db();
        let packed = PackedDb::from_db(&db);
        let sub = packed.subset(&[]);
        assert!(sub.is_empty());
        assert!(sub.view().is_empty());
        assert_eq!(sub.view().total_residues(), 0);
    }
}
