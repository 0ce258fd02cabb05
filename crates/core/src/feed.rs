//! Residue sources for the filter kernels: the fused per-warp fetch the
//! paper's Algorithm 1 uses, and the warp-specialized shared-memory ring
//! that replaces it in the pipelined kernels.
//!
//! Every filter kernel consumes its sequence's residues strictly in
//! order, six to a packed 32-bit word (Fig. 6). [`ResidueSource`]
//! abstracts where those words come from:
//!
//! * [`DirectFeed`] — the compute warp itself issues one uniform global
//!   read per word, stalling on DRAM latency each time (the baseline
//!   schedule, bit- and count-identical to the pre-split kernels);
//! * [`RingFeed`] — a dedicated *loader* warp streams words for the whole
//!   pair workload (all its sequences, back to back) through an N-stage
//!   shared-memory ring, racing ahead of the paired *compute* warp as far
//!   as the ring's depth allows. The two warps synchronize only through
//!   full/empty barrier arrivals ([`SimtCtx::ring_sync`]); a
//!   [`RingPipe`] recovers the overlapped makespan from the two roles'
//!   interleaved functional execution.
//!
//! The ring carries the *actual* packed words through shared memory, so
//! scores computed through it are bit-exact with the direct feed by
//! construction of the data path, not by fiat — and eliding the barrier
//! arrivals (`sync: false`) makes the race detector fire, the same
//! failure-injection idiom as the MSV double-buffer switch.

use crate::layout::GM_RES_BASE;
use h3w_seqdb::{unpack_slot, PackedView, RESIDUES_PER_WORD};
use h3w_simt::{lane_ids, Lanes, RingPipe, RingSpec, SimtCtx, RING_STAGE_BYTES, RING_STAGE_WORDS};

/// Modeled DRAM round-trip charged to each ring-stage fill, in issue
/// slots (Kepler global-load latency ≈ 400 cycles). The unspecialized
/// kernel pays this stall on every uniform word fetch; the loader warp
/// pays it once per stage and the ring hides it under compute.
pub const GMEM_FILL_LATENCY_SLOTS: u64 = 400;

/// Where a kernel's packed residue words come from. Residues are fetched
/// strictly in order within each sequence.
pub trait ResidueSource {
    /// Enter sequence `seqid` (kernels call this once per `score_one`).
    fn begin_seq(&mut self, ctx: &mut SimtCtx, seqid: usize);
    /// Residue `i` of the current sequence.
    fn residue(&mut self, ctx: &mut SimtCtx, i: usize) -> u8;
    /// The kernel early-exited (overflow): the rest of the current
    /// sequence will not be read.
    fn skip_rest(&mut self, _ctx: &mut SimtCtx) {}
}

/// The baseline fused fetch: one uniform global read per packed word,
/// issued by the compute warp itself.
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
}

impl ResidueSource for DirectFeed<'_> {
    fn begin_seq(&mut self, _ctx: &mut SimtCtx, seqid: usize) {
        self.seqid = seqid;
        self.word_off = self.db.offsets[seqid] as usize;
    }

    fn residue(&mut self, ctx: &mut SimtCtx, i: usize) -> u8 {
        if i.is_multiple_of(RESIDUES_PER_WORD) {
            ctx.gmem_access_uniform(GM_RES_BASE + (self.word_off + i / RESIDUES_PER_WORD) * 4, 4);
        }
        self.db.residue(self.seqid, i)
    }
}

/// The warp-specialized feed: a loader warp fills an N-stage ring of
/// packed words in shared memory; the compute warp drains it.
pub struct RingFeed<'a> {
    db: PackedView<'a>,
    /// Word indices into `db.words` in consumption order: the pair's
    /// sequences concatenated (one stage can span a sequence boundary, so
    /// the loader prefetches the *next* sequence while the compute warp
    /// finishes the current one).
    stream: Vec<u32>,
    /// Per local sequence: (seqid, start position in `stream`).
    seqs: Vec<(usize, usize)>,
    cur: usize,
    cur_start: usize,
    cur_end: usize,
    spec: RingSpec,
    ring_base: usize,
    loader_warp: u16,
    compute_warp: u16,
    /// Emit the full/empty barrier arrivals. `false` is the
    /// failure-injection switch: the data path still works in functional
    /// lockstep, but the hazard detector must flag the unordered
    /// cross-warp traffic.
    pub sync: bool,
    pipe: RingPipe,
    /// Stream position of the loader cursor.
    loaded: usize,
    /// Stream bounds of the chunk in each ring slot.
    slot_start: Vec<usize>,
    slot_end: Vec<usize>,
    /// Compute warp is mid-drain of chunk `pipe.consumed()`.
    reading: bool,
    win_start: u64,
    cur_word: u32,
    cur_word_pos: usize,
}

impl<'a> RingFeed<'a> {
    /// Build the feed for the pair scoring `first_seq, first_seq+stride,
    /// …` over `db`, with its ring at `ring_base` in shared memory.
    pub fn new(
        db: PackedView<'a>,
        first_seq: usize,
        stride: usize,
        spec: RingSpec,
        ring_base: usize,
        loader_warp: u16,
        compute_warp: u16,
    ) -> RingFeed<'a> {
        let mut stream = Vec::new();
        let mut seqs = Vec::new();
        for seqid in (first_seq..db.n_seqs()).step_by(stride) {
            seqs.push((seqid, stream.len()));
            let off = db.offsets[seqid];
            stream.extend(off..off + seq_words(db, seqid) as u32);
        }
        RingFeed {
            db,
            stream,
            seqs,
            cur: 0,
            cur_start: 0,
            cur_end: 0,
            spec,
            ring_base,
            loader_warp,
            compute_warp,
            sync: true,
            pipe: RingPipe::new(spec),
            loaded: 0,
            slot_start: vec![0; spec.stages],
            slot_end: vec![0; spec.stages],
            reading: false,
            win_start: 0,
            cur_word: 0,
            cur_word_pos: usize::MAX,
        }
    }

    /// Loader role: fill the next ring stage with up to
    /// [`RING_STAGE_WORDS`] consecutive stream words — one coalesced
    /// global transaction instead of the direct feed's word-at-a-time
    /// uniform reads — then arrive on the stage's full barrier.
    fn produce_one(&mut self, ctx: &mut SimtCtx) {
        let n = RING_STAGE_WORDS.min(self.stream.len() - self.loaded);
        debug_assert!(n > 0, "loader ran past the stream");
        let slot = (self.pipe.produced() % self.spec.stages as u64) as usize;
        let saved = ctx.warp_id;
        ctx.warp_id = self.loader_warp;
        let before = ctx.stats.issue_slots();
        let ids = lane_ids();
        let active = ids.map(|t| t < n);
        let gaddrs =
            ids.map(|t| GM_RES_BASE + self.stream[self.loaded + t.min(n - 1)] as usize * 4);
        ctx.gmem_access(gaddrs, 4, active);
        let vals = Lanes::from_fn(|t| {
            if t < n {
                self.db.words[self.stream[self.loaded + t] as usize]
            } else {
                0
            }
        });
        let base = self.ring_base + slot * RING_STAGE_BYTES;
        ctx.st_smem_u32(ids.map(|t| base + 4 * t), vals, active);
        ctx.alu(2); // cursor bookkeeping
        if self.sync {
            ctx.ring_sync(); // arrive on the full barrier
        }
        let spent = ctx.stats.issue_slots() - before;
        ctx.warp_id = saved;
        self.slot_start[slot] = self.loaded;
        self.loaded += n;
        self.slot_end[slot] = self.loaded;
        self.pipe.produce(spent + GMEM_FILL_LATENCY_SLOTS);
    }

    /// Compute role: retire the chunk being drained — charge its window
    /// of compute slots to the pipe and arrive on the empty barrier.
    fn close_chunk(&mut self, ctx: &mut SimtCtx) {
        debug_assert!(self.reading);
        let cost = ctx.stats.issue_slots() - self.win_start;
        self.pipe.consume(cost);
        if self.sync {
            ctx.ring_sync(); // arrive on the empty barrier
        }
        self.reading = false;
    }

    /// Fetch the packed word at stream position `pos` through the ring.
    fn fetch_word(&mut self, ctx: &mut SimtCtx, pos: usize) -> u32 {
        loop {
            if self.reading {
                let slot = (self.pipe.consumed() % self.spec.stages as u64) as usize;
                if pos < self.slot_end[slot] {
                    debug_assert!(pos >= self.slot_start[slot]);
                    break;
                }
                self.close_chunk(ctx);
                continue;
            }
            if self.pipe.consumed() == self.pipe.produced() {
                // Loader is at the frontier; after an early exit it skips
                // straight to the next word the compute warp wants.
                if self.loaded < pos {
                    self.loaded = pos;
                }
                self.produce_one(ctx);
            }
            // Race ahead: fill every empty stage while the stream lasts.
            while self.pipe.fill_headroom() > 0 && self.loaded < self.stream.len() {
                self.produce_one(ctx);
            }
            let slot = (self.pipe.consumed() % self.spec.stages as u64) as usize;
            if pos >= self.slot_end[slot] {
                // Chunk entirely skipped by an early exit: drain it with a
                // bare barrier arrival, no reads.
                self.pipe.consume(1);
                if self.sync {
                    ctx.ring_sync();
                }
                continue;
            }
            self.reading = true;
            self.win_start = ctx.stats.issue_slots();
        }
        let slot = (self.pipe.consumed() % self.spec.stages as u64) as usize;
        let addr = self.ring_base + slot * RING_STAGE_BYTES + 4 * (pos - self.slot_start[slot]);
        // Uniform broadcast read — all lanes decode the same word, one
        // bank transaction, exactly like the direct feed's register word.
        ctx.ld_smem_u32(Lanes::splat(addr), Lanes::splat(true))
            .lane(0)
    }

    /// Drain the pipe at end of workload and fold its accounting into the
    /// stats. Must be called once after the pair's last sequence.
    pub fn finish(&mut self, ctx: &mut SimtCtx) {
        if self.reading {
            self.close_chunk(ctx);
        }
        while self.pipe.consumed() < self.pipe.produced() {
            self.pipe.consume(1);
            if self.sync {
                ctx.ring_sync();
            }
        }
        self.pipe.finish_into(&mut ctx.stats);
    }

    /// Simulated overlap achieved so far (for tests).
    pub fn pipe(&self) -> &RingPipe {
        &self.pipe
    }
}

impl ResidueSource for RingFeed<'_> {
    fn begin_seq(&mut self, _ctx: &mut SimtCtx, seqid: usize) {
        let (expect, start) = self.seqs[self.cur];
        debug_assert_eq!(expect, seqid, "pair visited sequences out of order");
        self.cur_start = start;
        self.cur_end = self
            .seqs
            .get(self.cur + 1)
            .map_or(self.stream.len(), |&(_, s)| s);
        self.cur += 1;
        self.cur_word_pos = usize::MAX;
        debug_assert_eq!(seq_words(self.db, seqid), self.cur_end - self.cur_start);
    }

    fn residue(&mut self, ctx: &mut SimtCtx, i: usize) -> u8 {
        let pos = self.cur_start + i / RESIDUES_PER_WORD;
        debug_assert!(pos < self.cur_end);
        if pos != self.cur_word_pos {
            debug_assert_eq!(self.compute_warp, ctx.warp_id);
            self.cur_word = self.fetch_word(ctx, pos);
            self.cur_word_pos = pos;
        }
        unpack_slot(self.cur_word, i % RESIDUES_PER_WORD)
    }

    fn skip_rest(&mut self, ctx: &mut SimtCtx) {
        // Retire the chunk under the cursor if the skip clears it; chunks
        // fully inside the skipped tail are drained lazily by the next
        // fetch, and unloaded tail words are never loaded at all.
        if self.reading {
            let slot = (self.pipe.consumed() % self.spec.stages as u64) as usize;
            if self.cur_end >= self.slot_end[slot] {
                self.close_chunk(ctx);
            }
        }
    }
}

fn seq_words(db: PackedView<'_>, seqid: usize) -> usize {
    (db.lengths[seqid] as usize).div_ceil(RESIDUES_PER_WORD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3w_seqdb::gen::{generate, DbGenSpec};
    use h3w_seqdb::PackedDb;

    fn packed() -> PackedDb {
        let spec = DbGenSpec::envnr_like().scaled(5e-6);
        PackedDb::from_db(&generate(&spec, None, 9))
    }

    #[test]
    fn ring_feed_reproduces_every_residue() {
        let p = packed();
        let db = p.view();
        for stages in [2usize, 3, 8] {
            let mut ctx = SimtCtx::new(4096, true);
            let mut feed = RingFeed::new(db, 0, 1, RingSpec::new(stages).unwrap(), 0, 9, 0);
            for seqid in 0..db.n_seqs() {
                feed.begin_seq(&mut ctx, seqid);
                for i in 0..db.lengths[seqid] as usize {
                    assert_eq!(
                        feed.residue(&mut ctx, i),
                        db.residue(seqid, i),
                        "stages={stages} seq={seqid} i={i}"
                    );
                }
            }
            feed.finish(&mut ctx);
            ctx.finish_block();
            assert_eq!(ctx.stats.hazards, 0, "stages={stages}");
            assert!(ctx.stats.ring_syncs > 0);
            assert!(ctx.stats.pipe_serial_slots >= ctx.stats.pipe_makespan_slots);
        }
    }

    #[test]
    fn eliding_ring_syncs_trips_the_race_detector() {
        let p = packed();
        let db = p.view();
        let mut ctx = SimtCtx::new(4096, true);
        let mut feed = RingFeed::new(db, 0, 1, RingSpec::new(4).unwrap(), 0, 9, 0);
        feed.sync = false;
        feed.begin_seq(&mut ctx, 0);
        for i in 0..db.lengths[0] as usize {
            let _ = feed.residue(&mut ctx, i);
        }
        feed.finish(&mut ctx);
        ctx.finish_block();
        assert!(ctx.stats.hazards > 0, "unsynchronized ring must race");
    }

    #[test]
    fn skip_rest_keeps_later_sequences_intact() {
        let p = packed();
        let db = p.view();
        let mut ctx = SimtCtx::new(4096, true);
        let mut feed = RingFeed::new(db, 0, 1, RingSpec::new(2).unwrap(), 0, 9, 0);
        for seqid in 0..db.n_seqs() {
            feed.begin_seq(&mut ctx, seqid);
            let len = db.lengths[seqid] as usize;
            // Read a prefix, then bail — like an MSV overflow.
            let stop = if seqid % 2 == 0 { len.min(7) } else { len };
            for i in 0..stop {
                assert_eq!(feed.residue(&mut ctx, i), db.residue(seqid, i));
            }
            if stop < len {
                feed.skip_rest(&mut ctx);
            }
        }
        feed.finish(&mut ctx);
        ctx.finish_block();
        assert_eq!(ctx.stats.hazards, 0);
    }

    #[test]
    fn direct_feed_matches_packed_view() {
        let p = packed();
        let db = p.view();
        let mut ctx = SimtCtx::new(0, false);
        let mut feed = DirectFeed::new(db);
        feed.begin_seq(&mut ctx, 1);
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
