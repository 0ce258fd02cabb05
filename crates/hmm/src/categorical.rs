//! Categorical draws over the 20 standard residues.
//!
//! [`scan`] is the one definition of a draw in this workspace: walk the
//! distribution, subtracting each probability from the uniform `u` until
//! `u` falls below one. Every generated database, calibration sample and
//! synthetic model is defined by it, so every pinned hit list and
//! `Calibration` is too.
//!
//! A `Table` returns exactly what [`scan`] returns, in a guide lookup
//! and usually no step. Exactness rests on one fact: the scan is
//! monotone in `u`. Each `u − p` rounds monotonically and each `u < p`
//! compares monotonically, so a larger `u` stays at least as large at
//! every step and leaves the walk no earlier. The scan's answer is then
//! the number of its step points at or below `u`, where step point `x`
//! is the smallest `f32` at which the answer exceeds `x`. The table finds
//! those 19 points by bisection over `f32` bit patterns, whose order is
//! the order of non-negative values, so it agrees with the scan on every
//! `f32` in `[0, 1)` whatever generator produced it, and a caller takes
//! one uniform per draw either way.
//!
//! `background()` is the table of [`BACKGROUND_F`], built once per
//! process. Generated background sequences, homolog flanks and the
//! calibration sample draw through it (by
//! [`crate::calibrate::random_seq`]), and synthetic models draw their
//! consensus residues from it. A homolog's per-node emissions call
//! [`scan`] directly: a table per node would cost more to build than the
//! draws it serves.

use crate::alphabet::{Residue, BACKGROUND_F, N_STANDARD};
use std::sync::LazyLock;

/// Guide entries: `u · GUIDE_LEN` scales by a power of two, so the
/// guide index `⌊u · GUIDE_LEN⌋` is exact.
const GUIDE_LEN: usize = 4096;

/// Draw a residue from `dist` with the uniform `u`. `u` at or past the
/// distribution's total mass returns the last residue.
pub fn scan(dist: &[f32; N_STANDARD], u: f32) -> Residue {
    let mut u = u;
    for (x, &p) in dist.iter().enumerate() {
        if u < p {
            return x as Residue;
        }
        u -= p;
    }
    (N_STANDARD - 1) as Residue
}

/// [`scan`] of one distribution as a lookup table.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    /// `steps[x]`: the smallest `u` in `[0, 1)` the scan maps past `x`,
    /// or `1.0` if there is none.
    steps: [f32; N_STANDARD - 1],
    /// `guide[g]`: the scan's residue at `g / GUIDE_LEN`, the smallest
    /// `u` of bucket `g`.
    guide: [Residue; GUIDE_LEN],
}

impl Table {
    /// Tabulate [`scan`] over `dist` (any non-negative weights; they
    /// need not sum to 1).
    pub(crate) fn new(dist: &[f32; N_STANDARD]) -> Table {
        Table {
            steps: std::array::from_fn(|x| first_past(dist, x)),
            guide: std::array::from_fn(|g| scan(dist, g as f32 / GUIDE_LEN as f32)),
        }
    }

    /// `scan(dist, u)` for `u` in `[0, 1)`: the guide's residue, walked
    /// forward over the step points at or below `u`.
    #[inline]
    pub(crate) fn draw(&self, u: f32) -> Residue {
        debug_assert!((0.0..1.0).contains(&u), "u = {u} outside [0, 1)");
        let mut x = self.guide[(u * GUIDE_LEN as f32) as usize] as usize;
        while x < N_STANDARD - 1 && u >= self.steps[x] {
            x += 1;
        }
        x as Residue
    }
}

/// The smallest `u` in `[0, 1)` with `scan(dist, u) > x`, or `1.0`:
/// bisection over bit patterns, which order non-negative `f32`s.
fn first_past(dist: &[f32; N_STANDARD], x: usize) -> f32 {
    let (mut lo, mut hi) = (0u32, 1.0f32.to_bits());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if scan(dist, f32::from_bits(mid)) as usize > x {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    f32::from_bits(lo)
}

static BACKGROUND: LazyLock<Table> = LazyLock::new(|| Table::new(&BACKGROUND_F));

/// The table of [`BACKGROUND_F`], built on first use.
pub(crate) fn background() -> &'static Table {
    &BACKGROUND
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn background_table_is_the_scan_for_every_rng_draw() {
        // `gen::<f32>()` returns k · 2⁻²⁴ for k < 2²⁴: all of them.
        let table = background();
        for k in 0..1u32 << 24 {
            let u = k as f32 * (1.0 / (1u32 << 24) as f32);
            assert_eq!(table.draw(u), scan(&BACKGROUND_F, u), "u = {u:e} (k = {k})");
        }
    }

    /// Twenty weights in `[0, 0.2)`, about a quarter of them zero, so
    /// totals fall on both sides of 1.
    fn weights() -> impl Strategy<Value = Vec<(u8, f32)>> {
        prop::collection::vec((0u8..4, 0.0f32..0.2), N_STANDARD..N_STANDARD + 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn any_table_is_its_scan(w in weights(), us in prop::collection::vec(0.0f32..1.0, 64..65)) {
            let dist: [f32; N_STANDARD] =
                std::array::from_fn(|x| if w[x].0 == 0 { 0.0 } else { w[x].1 });
            let table = Table::new(&dist);
            // Each step point and the value just below it pin the
            // answer on both sides of every step; the scan's
            // monotonicity covers the values in between.
            let edges = table.steps.iter().filter(|&&s| s < 1.0).flat_map(|&s| [s, s.next_down()]);
            for u in edges.filter(|&u| u >= 0.0).chain(us).chain([0.0, 1.0f32.next_down()]) {
                prop_assert_eq!(table.draw(u), scan(&dist, u), "u = {:e}, dist {:?}", u, dist);
            }
        }
    }
}
