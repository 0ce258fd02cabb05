//! The residue feed of the filter kernels: Algorithm 1 line 11.
//!
//! Every filter kernel consumes its sequence's residues strictly in
//! order, six to a packed 32-bit word (Fig. 6). [`DirectFeed`] hides that
//! packing and its accounting: the warp issues one uniform global read per
//! word, then decodes each residue from it with a shift and a mask.

use crate::layout::GM_RES_BASE;
use h3w_seqdb::{PackedView, RESIDUES_PER_WORD};
use h3w_simt::SimtCtx;

/// The fused fetch: one uniform global read per packed word, issued by
/// the scoring warp itself.
pub struct DirectFeed<'a> {
    db: PackedView<'a>,
    seqid: usize,
    word_off: usize,
}

impl<'a> DirectFeed<'a> {
    /// A direct feed over `db`.
    pub fn new(db: PackedView<'a>) -> DirectFeed<'a> {
        DirectFeed {
            db,
            seqid: 0,
            word_off: 0,
        }
    }

    /// Enter sequence `seqid` (kernels call this once per sequence).
    pub fn begin_seq(&mut self, seqid: usize) {
        self.seqid = seqid;
        self.word_off = self.db.offsets[seqid] as usize;
    }

    /// Residue `i` of the current sequence.
    pub fn residue(&mut self, ctx: &mut SimtCtx, i: usize) -> u8 {
        if i.is_multiple_of(RESIDUES_PER_WORD) {
            ctx.gmem_access_uniform(GM_RES_BASE + (self.word_off + i / RESIDUES_PER_WORD) * 4, 4);
        }
        self.db.residue(self.seqid, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;

    #[test]
    fn direct_feed_matches_packed_view() {
        let spec = DbGenSpec::envnr_like().scaled(5e-6);
        let p = PackedDb::from_db(&generate(&spec, None, 9));
        let db = p.view();
        let mut ctx = SimtCtx::new(&h3w_simt::DeviceSpec::tesla_k40(), 0, false);
        let mut feed = DirectFeed::new(db);
        feed.begin_seq(1);
        for i in 0..db.lengths[1] as usize {
            assert_eq!(feed.residue(&mut ctx, i), db.residue(1, i));
        }
        // One uniform transaction per packed word.
        assert_eq!(
            ctx.stats.gmem_transactions,
            (db.lengths[1] as u64).div_ceil(RESIDUES_PER_WORD as u64)
        );
    }
}
