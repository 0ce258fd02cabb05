//! Warp lane vectors — the register state of 32 lockstep threads.
//!
//! A `Lanes<T>` is one per-thread register viewed across the warp. All
//! operations are whole-warp (SIMT lockstep): the reads of one operation
//! complete for every lane before the writes of the next begin, which is
//! the hardware guarantee the paper's warp-synchronous design exploits
//! (§III-A: "every 32 threads within a thread-warp are always executed
//! synchronously").
//!
//! These are pure data operations; instruction/memory *accounting* lives in
//! the execution context ([`SimtCtx`](crate::exec::SimtCtx)), which wraps them.

use crate::device::WARP_SIZE;

/// One register across all 32 lanes of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<T>(pub [T; WARP_SIZE]);

impl<T: Copy + Default> Lanes<T> {
    /// Broadcast one value to every lane.
    #[inline]
    pub fn splat(v: T) -> Self {
        Lanes([v; WARP_SIZE])
    }

    /// Build from a per-lane function of the lane index.
    #[inline]
    pub fn from_fn(f: impl FnMut(usize) -> T) -> Self {
        Lanes(core::array::from_fn(f))
    }

    /// Lane-wise binary combine.
    #[inline]
    pub fn zip(self, other: Self, mut f: impl FnMut(T, T) -> T) -> Self {
        Lanes(core::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    /// Lane-wise map.
    #[inline]
    pub fn map<U: Copy + Default>(self, mut f: impl FnMut(T) -> U) -> Lanes<U> {
        Lanes(core::array::from_fn(|i| f(self.0[i])))
    }

    /// Value held by one lane.
    #[inline]
    pub fn lane(&self, i: usize) -> T {
        self.0[i]
    }

    /// Set one lane's value.
    #[inline]
    pub fn set_lane(&mut self, i: usize, v: T) {
        self.0[i] = v;
    }
}

impl<T: Copy + Default> Lanes<T> {
    /// The butterfly exchange `__shfl_xor(v, mask)`: every lane receives
    /// the value of lane `lane ^ mask` (§III-A "Warp-Shuffled Reduction";
    /// Kepler `SHFL.BFLY`).
    #[inline]
    pub fn shfl_xor(self, mask: usize) -> Self {
        debug_assert!(mask < WARP_SIZE);
        Lanes(core::array::from_fn(|i| self.0[i ^ mask]))
    }
}

impl Lanes<bool> {
    /// Warp vote `__all(pred)`: true iff every lane's predicate holds —
    /// the convergence test of the parallel Lazy-F loop (§III-B, Fig. 7).
    #[inline]
    pub fn vote_all(&self) -> bool {
        self.0.iter().all(|&b| b)
    }
}

/// The lane indices `0..32` (CUDA's `threadIdx.x` within a warp).
#[inline]
pub fn lane_ids() -> Lanes<usize> {
    Lanes::from_fn(|i| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_from_fn() {
        let s = Lanes::splat(7u8);
        assert!(s.0.iter().all(|&v| v == 7));
        let ids = lane_ids();
        assert_eq!(ids.lane(0), 0);
        assert_eq!(ids.lane(31), 31);
    }

    #[test]
    fn shfl_xor_is_involution() {
        let v = Lanes::from_fn(|i| i as u32 * 3);
        for mask in [1usize, 2, 4, 8, 16] {
            let twice = v.shfl_xor(mask).shfl_xor(mask);
            assert_eq!(twice, v, "mask {mask}");
        }
    }

    #[test]
    fn votes() {
        let mut p = Lanes::splat(true);
        assert!(p.vote_all());
        p.set_lane(3, false);
        assert!(!p.vote_all());
    }

    #[test]
    fn zip_and_map() {
        let a = Lanes::from_fn(|i| i as u8);
        let b = Lanes::splat(10u8);
        let sum = a.zip(b, |x, y| x.saturating_add(y));
        assert_eq!(sum.lane(5), 15);
        let wide = a.map(|x| x as u16 * 100);
        assert_eq!(wide.lane(31), 3100);
    }
}
