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

mod sealed {
    pub trait Sealed {}
}

/// An element type a warp moves through shared memory: the byte cells
/// of MSV, the 16-bit words of Viterbi, the floats of Forward.
/// Sealed — the simulator's access API is defined for these three only.
pub trait SmemElem: sealed::Sealed + Copy + Default {
    /// Bytes per element (≤ one 4-byte bank word).
    const WIDTH: usize;
    /// Decode from `WIDTH` little-endian bytes.
    fn read(bytes: &[u8]) -> Self;
    /// Encode into `WIDTH` little-endian bytes.
    fn write(self, bytes: &mut [u8]);
}

macro_rules! smem_elem {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl SmemElem for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn read(bytes: &[u8]) -> $t {
                <$t>::from_le_bytes(std::array::from_fn(|i| bytes[i]))
            }
            #[inline]
            fn write(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
smem_elem!(u8, i16, f32);

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
        // The first word each bank serves, and the bank's distinct-word
        // count. The warp kernels' accesses are conflict-free, so they
        // never scan: every lane's word is its bank's first.
        let mut first = [usize::MAX; SMEM_BANKS];
        let mut per_bank = [0u32; SMEM_BANKS];
        for i in 0..WARP_SIZE {
            if !active.lane(i) {
                continue;
            }
            // A width-wide access touches one word (alignment assumed —
            // all uses here are naturally aligned u8/u16/f32).
            let word = addrs.lane(i) / BANK_WIDTH;
            debug_assert!(width <= BANK_WIDTH);
            let bank = word % SMEM_BANKS;
            if first[bank] == usize::MAX {
                first[bank] = word;
                per_bank[bank] = 1;
            } else if first[bank] != word {
                // Another word in this bank: new unless an earlier lane
                // touched it too.
                let seen = (0..i).any(|j| active.lane(j) && addrs.lane(j) / BANK_WIDTH == word);
                per_bank[bank] += !seen as u32;
            }
        }
        // An access with any active lane counts at least one replay.
        let replays = per_bank.iter().copied().max().unwrap_or(0);
        AccessCost {
            transactions: replays,
        }
    }

    /// Warp-wide load of `T` at per-lane byte addresses (naturally
    /// aligned); inactive lanes read nothing and hold `T::default()`.
    pub fn ld<T: SmemElem>(
        &mut self,
        addrs: Lanes<usize>,
        active: Lanes<bool>,
        warp: u16,
    ) -> (Lanes<T>, AccessCost) {
        let cost = Self::bank_cost(&addrs, &active, T::WIDTH);
        let mut out = Lanes::splat(T::default());
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                debug_assert_eq!(a % T::WIDTH, 0, "unaligned shared load");
                out.set_lane(i, T::read(&self.data[a..a + T::WIDTH]));
                for off in 0..T::WIDTH {
                    self.note_read(a + off, warp);
                }
            }
        }
        (out, cost)
    }

    /// Warp-wide store of `T` at per-lane byte addresses (naturally
    /// aligned).
    pub fn st<T: SmemElem>(
        &mut self,
        addrs: Lanes<usize>,
        vals: Lanes<T>,
        active: Lanes<bool>,
        warp: u16,
    ) -> AccessCost {
        let cost = Self::bank_cost(&addrs, &active, T::WIDTH);
        for i in 0..WARP_SIZE {
            if active.lane(i) {
                let a = addrs.lane(i);
                debug_assert_eq!(a % T::WIDTH, 0, "unaligned shared store");
                vals.lane(i).write(&mut self.data[a..a + T::WIDTH]);
                for off in 0..T::WIDTH {
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

    /// Replays of one warp-wide load of `T` at `addrs`.
    fn load_cost<T: SmemElem>(addrs: Lanes<usize>, active: Lanes<bool>) -> u32 {
        let mut sm = SharedMem::new(32 * 128 + 8, false);
        sm.ld::<T>(addrs, active, 0).1.transactions
    }

    /// Every bank-cost case, with element `k` of lane `i` at byte
    /// `i · stride + k · T::WIDTH`.
    fn bank_costs<T: SmemElem>() {
        let w = T::WIDTH;
        // §III-A: 32 consecutive elements span 32·w/4 words in as many
        // banks, 4/w lanes per word → broadcast within a word, no
        // conflicts.
        assert_eq!(load_cost::<T>(Lanes::from_fn(|i| i * w), all_active()), 1);
        // Stride of 128 bytes = 32 words: every lane hits bank 0 with a
        // distinct word → 32-way serialization.
        assert_eq!(
            load_cost::<T>(Lanes::from_fn(|i| i * 128), all_active()),
            32
        );
        // Stride 8 bytes = 2 words: lanes hit 16 banks, 2 words each.
        assert_eq!(load_cost::<T>(Lanes::from_fn(|i| i * 8), all_active()), 2);
        // One address for every lane is a broadcast.
        assert_eq!(load_cost::<T>(Lanes::splat(12), all_active()), 1);
        // No active lane, no cycle.
        let none = Lanes::splat(false);
        assert_eq!(load_cost::<T>(lane_ids().map(|i| i * w), none), 0);
    }

    #[test]
    fn bank_costs_at_every_width() {
        bank_costs::<u8>();
        bank_costs::<i16>();
        bank_costs::<f32>();
    }

    fn round_trip<T: SmemElem + PartialEq + std::fmt::Debug>(vals: Lanes<T>) {
        let mut sm = SharedMem::new(256, false);
        let addrs = Lanes::from_fn(|i| 64 + i * T::WIDTH);
        sm.st(addrs, vals, all_active(), 0);
        let (back, _) = sm.ld::<T>(addrs, all_active(), 0);
        assert_eq!(back, vals);
        // Inactive lanes neither write nor read.
        let odd = Lanes::from_fn(|i| i % 2 == 1);
        sm.st(addrs, Lanes::splat(T::default()), odd, 0);
        let (mixed, _) = sm.ld::<T>(addrs, all_active(), 0);
        let want = Lanes::from_fn(|i| {
            if i % 2 == 1 {
                T::default()
            } else {
                vals.lane(i)
            }
        });
        assert_eq!(mixed, want);
        // Masked-off lanes of a load hold the default.
        let (evens, _) = sm.ld::<T>(addrs, odd.map(|b| !b), 0);
        assert_eq!(evens, want);
    }

    #[test]
    fn store_load_round_trip_at_every_width() {
        round_trip(Lanes::from_fn(|i| (i * 3) as u8 + 1));
        round_trip(Lanes::from_fn(|i| i as i16 * -100 - 1));
        round_trip(Lanes::from_fn(|i| i as f32 * -1.5 - 0.25));
    }

    /// The cross-warp hazard cases for `T` at one aligned cell.
    fn hazards<T: SmemElem>(v: T) {
        let cell = Lanes::splat(8);
        // Warp 0 writes the cell; warp 1 reads it in the same epoch → race.
        let mut sm = SharedMem::new(64, true);
        sm.st(cell, Lanes::splat(v), all_active(), 0);
        assert_eq!(sm.hazards(), 0);
        sm.ld::<T>(cell, all_active(), 1);
        assert!(sm.hazards() > 0);

        // A barrier between them orders the two accesses.
        let mut sm = SharedMem::new(64, true);
        sm.st(cell, Lanes::splat(v), all_active(), 0);
        sm.advance_epoch(); // __syncthreads
        sm.ld::<T>(cell, all_active(), 1);
        assert_eq!(sm.hazards(), 0);

        // One warp reusing its own cell is never a race.
        let mut sm = SharedMem::new(64, true);
        sm.st(cell, Lanes::splat(v), all_active(), 3);
        sm.ld::<T>(cell, all_active(), 3);
        sm.st(cell, Lanes::splat(v), all_active(), 3);
        assert_eq!(sm.hazards(), 0);

        // Two warps writing one cell in one epoch race.
        let mut sm = SharedMem::new(64, true);
        sm.st(cell, Lanes::splat(v), all_active(), 0);
        sm.st(cell, Lanes::splat(v), all_active(), 2);
        assert!(sm.hazards() > 0);
    }

    #[test]
    fn cross_warp_hazards_at_every_width() {
        hazards(7u8);
        hazards(-7i16);
        hazards(7.5f32);
    }
}
