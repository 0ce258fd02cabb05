//! Block shared memory with bank-conflict accounting and an optional
//! lockstep hazard detector.
//!
//! Layout model: 32 banks, 4-byte bank words, successive words in
//! successive banks (Fermi/Kepler "4-byte mode"). A warp access is
//! serialized by `max_b |{distinct words touched in bank b}|` replays —
//! one when conflict-free. The paper's "Intrinsic Conflict-Free Access"
//! (§III-A) arranges byte-wide DP cells so every 4-lane group reads one
//! word of one bank; the counter here verifies that claim mechanically.
//!
//! The hazard detector implements the Fig. 4 argument: between two
//! barriers, a location written by one warp and read (or written) by a
//! different warp is a race on real hardware, because the block scheduler
//! may issue those warps in any order. Warp-synchronous kernels never trip
//! it; the naive multi-warp kernel with elided barriers must.

use crate::device::{BANK_WIDTH, SMEM_BANKS, WARP_SIZE};
use crate::lanes::Lanes;

/// Result of one warp-wide shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCost {
    /// Serialized replays (≥ 1 for any access with an active lane).
    pub transactions: u32,
}

#[derive(Debug, Clone, Default)]
struct HazardTracker {
    epoch: u32,
    last_write_epoch: Vec<u32>,
    last_writer: Vec<u16>,
    last_read_epoch: Vec<u32>,
    last_reader: Vec<u16>,
    hazards: u64,
}

/// One block's shared memory.
#[derive(Debug, Clone)]
pub struct SharedMem {
    data: Vec<u8>,
    tracker: Option<HazardTracker>,
}

impl SharedMem {
    /// Allocate `size` bytes of zeroed shared memory. `track_hazards`
    /// enables the inter-warp race detector (at ~13 bytes/byte overhead —
    /// test configurations only).
    pub fn new(size: usize, track_hazards: bool) -> SharedMem {
        SharedMem {
            data: vec![0; size],
            tracker: track_hazards.then(|| HazardTracker {
                epoch: 1,
                last_write_epoch: vec![0; size],
                last_writer: vec![u16::MAX; size],
                last_read_epoch: vec![0; size],
                last_reader: vec![u16::MAX; size],
                hazards: 0,
            }),
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Zero the contents (fresh block launch); keeps hazard history cleared.
    pub fn reset(&mut self) {
        self.data.fill(0);
        if let Some(t) = &mut self.tracker {
            t.epoch += 1;
        }
    }

    /// Hazards recorded so far.
    pub fn hazards(&self) -> u64 {
        self.tracker.as_ref().map_or(0, |t| t.hazards)
    }

    /// Advance the barrier epoch (called by `__syncthreads`): accesses
    /// in different epochs are ordered and can no longer race.
    pub fn advance_epoch(&mut self) {
        if let Some(t) = &mut self.tracker {
            t.epoch += 1;
        }
    }

    fn note_read(&mut self, addr: usize, warp: u16) {
        if let Some(t) = &mut self.tracker {
            if t.last_write_epoch[addr] == t.epoch && t.last_writer[addr] != warp {
                t.hazards += 1;
            }
            t.last_read_epoch[addr] = t.epoch;
            t.last_reader[addr] = warp;
        }
    }

    fn note_write(&mut self, addr: usize, warp: u16) {
        if let Some(t) = &mut self.tracker {
            if (t.last_read_epoch[addr] == t.epoch && t.last_reader[addr] != warp)
                || (t.last_write_epoch[addr] == t.epoch && t.last_writer[addr] != warp)
            {
                t.hazards += 1;
            }
            t.last_write_epoch[addr] = t.epoch;
            t.last_writer[addr] = warp;
        }
    }

    /// Bank-conflict serialization for a set of active byte addresses of
    /// width `width` bytes: replays = max over banks of distinct bank-words
    /// touched in that bank.
    fn bank_cost(addrs: &Lanes<usize>, active: &Lanes<bool>, width: usize) -> AccessCost {
        // Distinct word indices; 32 lanes max so a fixed scan beats hashing.
        let mut seen = [usize::MAX; WARP_SIZE];
        let mut per_bank = [0u32; SMEM_BANKS];
        let mut n_seen = 0usize;
        for i in 0..WARP_SIZE {
            if !active.lane(i) {
                continue;
            }
            // A width-wide access touches one word (alignment assumed —
            // all uses here are naturally aligned u8/u16/f32).
            let word = addrs.lane(i) / BANK_WIDTH;
            debug_assert!(width <= BANK_WIDTH);
            let mut dup = false;
            for &w in seen[..n_seen].iter() {
                if w == word {
                    dup = true;
                    break;
                }
            }
            if !dup {
                seen[n_seen] = word;
                n_seen += 1;
                per_bank[word % SMEM_BANKS] += 1;
            }
        }
        let replays = per_bank.iter().copied().max().unwrap_or(0).max(
            // An access with any active lane costs at least one cycle.
            active.0.iter().any(|&a| a) as u32,
        );
        AccessCost {
            transactions: replays,
        }
    }

    /// Warp-wide byte load.
    pub fn ld_u8(
        &mut self,
        addrs: Lanes<usize>,
        active: Lanes<bool>,
        warp: u16,
    ) -> (Lanes<u8>, AccessCost) {
        let cost = Self::bank_cost(&addrs, &active, 1);
        let mut out = Lanes::splat(0u8);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                out.set_lane(i, self.data[a]);
                self.note_read(a, warp);
            }
        }
        (out, cost)
    }

    /// Warp-wide byte store.
    pub fn st_u8(
        &mut self,
        addrs: Lanes<usize>,
        vals: Lanes<u8>,
        active: Lanes<bool>,
        warp: u16,
    ) -> AccessCost {
        let cost = Self::bank_cost(&addrs, &active, 1);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                self.data[a] = vals.lane(i);
                self.note_write(a, warp);
            }
        }
        cost
    }

    /// Warp-wide 16-bit load (byte addresses, 2-aligned).
    pub fn ld_i16(
        &mut self,
        addrs: Lanes<usize>,
        active: Lanes<bool>,
        warp: u16,
    ) -> (Lanes<i16>, AccessCost) {
        let cost = Self::bank_cost(&addrs, &active, 2);
        let mut out = Lanes::splat(0i16);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                debug_assert_eq!(a % 2, 0, "unaligned i16 shared load");
                let v = i16::from_le_bytes([self.data[a], self.data[a + 1]]);
                out.set_lane(i, v);
                self.note_read(a, warp);
                self.note_read(a + 1, warp);
            }
        }
        (out, cost)
    }

    /// Warp-wide 16-bit store.
    pub fn st_i16(
        &mut self,
        addrs: Lanes<usize>,
        vals: Lanes<i16>,
        active: Lanes<bool>,
        warp: u16,
    ) -> AccessCost {
        let cost = Self::bank_cost(&addrs, &active, 2);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                debug_assert_eq!(a % 2, 0, "unaligned i16 shared store");
                let b = vals.lane(i).to_le_bytes();
                self.data[a] = b[0];
                self.data[a + 1] = b[1];
                self.note_write(a, warp);
                self.note_write(a + 1, warp);
            }
        }
        cost
    }

    /// Warp-wide 32-bit float load (byte addresses, 4-aligned).
    pub fn ld_f32(
        &mut self,
        addrs: Lanes<usize>,
        active: Lanes<bool>,
        warp: u16,
    ) -> (Lanes<f32>, AccessCost) {
        let cost = Self::bank_cost(&addrs, &active, 4);
        let mut out = Lanes::splat(0f32);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                debug_assert_eq!(a % 4, 0, "unaligned f32 shared load");
                let v = f32::from_le_bytes([
                    self.data[a],
                    self.data[a + 1],
                    self.data[a + 2],
                    self.data[a + 3],
                ]);
                out.set_lane(i, v);
                for off in 0..4 {
                    self.note_read(a + off, warp);
                }
            }
        }
        (out, cost)
    }

    /// Warp-wide 32-bit float store.
    pub fn st_f32(
        &mut self,
        addrs: Lanes<usize>,
        vals: Lanes<f32>,
        active: Lanes<bool>,
        warp: u16,
    ) -> AccessCost {
        let cost = Self::bank_cost(&addrs, &active, 4);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                debug_assert_eq!(a % 4, 0, "unaligned f32 shared store");
                let b = vals.lane(i).to_le_bytes();
                self.data[a..a + 4].copy_from_slice(&b);
                for off in 0..4 {
                    self.note_write(a + off, warp);
                }
            }
        }
        cost
    }

    /// Direct byte view for assertions in tests.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::lane_ids;

    fn all_active() -> Lanes<bool> {
        Lanes::splat(true)
    }

    #[test]
    fn consecutive_bytes_are_conflict_free() {
        // §III-A: 32 consecutive byte cells span 8 words in 8 distinct
        // banks, 4 lanes per word → broadcast within word, no conflicts.
        let mut sm = SharedMem::new(256, false);
        let addrs = lane_ids();
        let (_, cost) = sm.ld_u8(addrs, all_active(), 0);
        assert_eq!(cost.transactions, 1);
    }

    #[test]
    fn same_bank_different_words_conflict() {
        // Stride of 128 bytes = 32 words: every lane hits bank 0 with a
        // distinct word → 32-way serialization.
        let mut sm = SharedMem::new(32 * 128 + 4, false);
        let addrs = Lanes::from_fn(|i| i * 128);
        let (_, cost) = sm.ld_u8(addrs, all_active(), 0);
        assert_eq!(cost.transactions, 32);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        // Stride 8 bytes = 2 words: lanes hit 16 banks, 2 words each.
        let mut sm = SharedMem::new(32 * 8 + 8, false);
        let addrs = Lanes::from_fn(|i| i * 8);
        let (_, cost) = sm.ld_u8(addrs, all_active(), 0);
        assert_eq!(cost.transactions, 2);
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let mut sm = SharedMem::new(64, false);
        let (_, cost) = sm.ld_u8(Lanes::splat(12), all_active(), 0);
        assert_eq!(cost.transactions, 1);
    }

    #[test]
    fn inactive_access_costs_nothing() {
        let mut sm = SharedMem::new(64, false);
        let (_, cost) = sm.ld_u8(lane_ids(), Lanes::splat(false), 0);
        assert_eq!(cost.transactions, 0);
    }

    #[test]
    fn store_load_round_trip_u8_and_i16() {
        let mut sm = SharedMem::new(256, false);
        let vals = Lanes::from_fn(|i| (i * 3) as u8);
        sm.st_u8(lane_ids(), vals, all_active(), 0);
        let (back, _) = sm.ld_u8(lane_ids(), all_active(), 0);
        assert_eq!(back, vals);

        let waddrs = Lanes::from_fn(|i| 128 + 2 * i);
        let wvals = Lanes::from_fn(|i| i as i16 * -100);
        sm.st_i16(waddrs, wvals, all_active(), 0);
        let (wback, _) = sm.ld_i16(waddrs, all_active(), 0);
        assert_eq!(wback, wvals);
    }

    #[test]
    fn hazard_detected_across_warps_without_barrier() {
        let mut sm = SharedMem::new(64, true);
        // Warp 0 writes cell 10; warp 1 reads it in the same epoch → race.
        sm.st_u8(Lanes::splat(10), Lanes::splat(7), all_active(), 0);
        assert_eq!(sm.hazards(), 0);
        sm.ld_u8(Lanes::splat(10), all_active(), 1);
        assert!(sm.hazards() > 0);
    }

    #[test]
    fn barrier_clears_hazard_window() {
        let mut sm = SharedMem::new(64, true);
        sm.st_u8(Lanes::splat(10), Lanes::splat(7), all_active(), 0);
        sm.advance_epoch(); // __syncthreads
        sm.ld_u8(Lanes::splat(10), all_active(), 1);
        assert_eq!(sm.hazards(), 0);
    }

    #[test]
    fn same_warp_reuse_is_not_a_hazard() {
        let mut sm = SharedMem::new(64, true);
        sm.st_u8(Lanes::splat(10), Lanes::splat(7), all_active(), 3);
        sm.ld_u8(Lanes::splat(10), all_active(), 3);
        sm.st_u8(Lanes::splat(10), Lanes::splat(8), all_active(), 3);
        assert_eq!(sm.hazards(), 0);
    }

    #[test]
    fn write_write_race_detected() {
        let mut sm = SharedMem::new(64, true);
        sm.st_u8(Lanes::splat(10), Lanes::splat(7), all_active(), 0);
        sm.st_u8(Lanes::splat(10), Lanes::splat(9), all_active(), 2);
        assert!(sm.hazards() > 0);
    }

    #[test]
    fn i16_pair_conflict_free() {
        // 32 consecutive i16 cells = 64 bytes = 16 words in 16 banks,
        // 2 lanes per word → conflict-free.
        let mut sm = SharedMem::new(128, false);
        let addrs = Lanes::from_fn(|i| 2 * i);
        let (_, cost) = sm.ld_i16(addrs, all_active(), 0);
        assert_eq!(cost.transactions, 1);
    }
}
