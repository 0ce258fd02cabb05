//! The prefix-sum alternative for the D→D chain — the \[13\]-style
//! comparator for the Lazy-F ablation (E8), and the one implementation of
//! §VI's prefix scan (the Viterbi kernel always runs Lazy-F).
//!
//! Abbas et al. resolve the within-row Delete chain with parallel max-plus
//! prefix sums (a fixed `log₂`-depth scan), where the paper's Lazy-F
//! defers and converges data-dependently (Fig. 7). §III-B argues Lazy-F
//! "requires fewer on-chip memory resources and instructions"; §VI notes
//! prefix sums bound the iteration count when D→D is taken often (up to
//! 80% in large models). This module provides both resolutions over one
//! row so the ablation bench can count their work on the same inputs.
//!
//! The recurrence is `D(k) = max(seed(k), D(k−1) + tdd(k))`, i.e. a
//! max-plus inclusive scan: `D(k) = max_{j≤k} (seed(j) + Σ_{j<t≤k} tdd(t))`.
//! The scan computes in i32 (no intermediate saturation), so it equals the
//! saturating Lazy-F fixed point whenever no chain saturates — asserted in
//! tests on realistic magnitudes.

use h3w_hmm::vitprofile::{wadd, W_NEG_INF};
use h3w_simt::WARP_SIZE;

/// Work counters for one row resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdCost {
    /// Warp-shuffle instructions.
    pub shuffles: u64,
    /// ALU instructions.
    pub alu: u64,
    /// Warp votes.
    pub votes: u64,
    /// Shared-memory accesses.
    pub smem: u64,
}

/// Resolve the chain with the Fig. 7 Lazy-F procedure (chunked, vote-
/// terminated), returning the final row and its cost.
pub fn lazy_f_resolve(seeds: &[i16], tdd: &[i16]) -> (Vec<i16>, DdCost) {
    let m = seeds.len();
    assert_eq!(tdd.len(), m);
    let mut d = seeds.to_vec();
    let mut cost = DdCost::default();
    let chunks = m.div_ceil(WARP_SIZE);
    for c in 0..chunks {
        let lo = c * WARP_SIZE;
        let hi = (lo + WARP_SIZE).min(m);
        loop {
            cost.votes += 1;
            cost.alu += 3;
            cost.smem += 2; // left-neighbour read + conditional store
            let mut improved = false;
            // One lockstep iteration: all positions read their left
            // neighbour's *current* value simultaneously.
            let snapshot: Vec<i16> = (lo..hi)
                .map(|k| if k == 0 { W_NEG_INF } else { d[k - 1] })
                .collect();
            for (k, &left) in (lo..hi).zip(&snapshot) {
                let cand = wadd(left, tdd[k]);
                if cand > d[k] {
                    d[k] = cand;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    (d, cost)
}

/// Resolve the chain with a max-plus prefix scan (fixed cost: two
/// `log₂ 32`-step shuffle scans per chunk plus the cross-chunk carry).
pub fn prefix_resolve(seeds: &[i16], tdd: &[i16]) -> (Vec<i16>, DdCost) {
    let m = seeds.len();
    assert_eq!(tdd.len(), m);
    let mut d = vec![W_NEG_INF; m];
    let mut cost = DdCost::default();
    let mut carry: i32 = W_NEG_INF as i32; // D value entering the chunk
    let chunks = m.div_ceil(WARP_SIZE);
    for c in 0..chunks {
        let lo = c * WARP_SIZE;
        let hi = (lo + WARP_SIZE).min(m);
        // Fixed per-chunk cost: 5-step additive scan of tdd + 5-step
        // max scan of (seed − prefix) + combine.
        cost.shuffles += 10;
        cost.alu += 13;
        // prefix(k) = Σ_{lo < t ≤ k} tdd(t) with prefix(lo) = tdd(lo)
        // applied to the carry path only.
        let mut prefix = vec![0i32; hi - lo];
        let mut acc = 0i32;
        for (i, k) in (lo..hi).enumerate() {
            acc += tdd[k] as i32;
            prefix[i] = acc; // Σ_{lo ≤ t ≤ k} tdd(t)
        }
        // Candidates: from the carry (enters position lo via tdd[lo]):
        //   carry + prefix(k)
        // from seed(j), j in [lo, k]: seed(j) + (prefix(k) − prefix(j)).
        let mut best_shift = i64::MIN; // max over j of seed(j) − prefix(j)
        for (i, k) in (lo..hi).enumerate() {
            if seeds[k] > W_NEG_INF {
                best_shift = best_shift.max(seeds[k] as i64 - prefix[i] as i64);
            }
            let from_carry = if carry <= W_NEG_INF as i32 {
                i64::MIN
            } else {
                carry as i64 + prefix[i] as i64
            };
            let from_seeds = if best_shift == i64::MIN {
                i64::MIN
            } else {
                best_shift + prefix[i] as i64
            };
            let v = from_carry.max(from_seeds).max(seeds[k] as i64);
            d[k] = v.clamp(W_NEG_INF as i64, i16::MAX as i64) as i16;
        }
        carry = d[hi - 1] as i32;
    }
    (d, cost)
}

/// Exact scalar reference (the in-order propagation).
pub fn scalar_resolve(seeds: &[i16], tdd: &[i16]) -> Vec<i16> {
    let mut d = seeds.to_vec();
    for k in 1..d.len() {
        d[k] = d[k].max(wadd(d[k - 1], tdd[k]));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_row(m: usize, seed_density: f64, seed: u64) -> (Vec<i16>, Vec<i16>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<i16> = (0..m)
            .map(|_| {
                if rng.gen::<f64>() < seed_density {
                    rng.gen_range(-20000..10000)
                } else {
                    W_NEG_INF
                }
            })
            .collect();
        let mut tdd: Vec<i16> = (0..m).map(|_| rng.gen_range(-900..-30)).collect();
        tdd[0] = W_NEG_INF; // no transition into node 1
        (seeds, tdd)
    }

    #[test]
    fn all_three_agree_on_random_rows() {
        for m in [1usize, 7, 32, 33, 100, 257] {
            for density in [0.0, 0.1, 0.9] {
                let (seeds, tdd) = random_row(m, density, m as u64);
                let expect = scalar_resolve(&seeds, &tdd);
                let (lazy, _) = lazy_f_resolve(&seeds, &tdd);
                let (pfx, _) = prefix_resolve(&seeds, &tdd);
                assert_eq!(lazy, expect, "lazy m={m} d={density}");
                assert_eq!(pfx, expect, "prefix m={m} d={density}");
            }
        }
    }

    /// A row where D→D is never taken: every position's M→D seed already
    /// dominates (steep tdd) — the common case §III-B's claim rests on.
    fn quiet_row(m: usize, seed: u64) -> (Vec<i16>, Vec<i16>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<i16> = (0..m).map(|_| rng.gen_range(-6000..-5000)).collect();
        let mut tdd: Vec<i16> = (0..m).map(|_| rng.gen_range(-2500..-2000)).collect();
        tdd[0] = W_NEG_INF;
        (seeds, tdd)
    }

    /// A row with long profitable D→D chains: strong seeds over a weak
    /// baseline with gentle tdd (the §VI "80% of D-D transitions" regime).
    fn active_row(m: usize, seed: u64) -> (Vec<i16>, Vec<i16>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<i16> = (0..m)
            .map(|i| {
                if i % 24 == 3 {
                    rng.gen_range(-1000..0)
                } else {
                    rng.gen_range(-9000..-8500)
                }
            })
            .collect();
        let mut tdd: Vec<i16> = (0..m).map(|_| rng.gen_range(-120..-60)).collect();
        tdd[0] = W_NEG_INF;
        (seeds, tdd)
    }

    #[test]
    fn lazy_is_cheap_when_dd_rare() {
        // §III-B: "a large number of positions do not require the D-D
        // transition ... which greatly reduces the time".
        let (seeds, tdd) = quiet_row(320, 3);
        let (_, lazy) = lazy_f_resolve(&seeds, &tdd);
        let (_, pfx) = prefix_resolve(&seeds, &tdd);
        // Lazy does exactly 1 vote/chunk; prefix always pays the full scan.
        assert_eq!(lazy.votes, (320 / 32) as u64);
        assert!(pfx.shuffles >= 10 * (320 / 32) as u64);
    }

    #[test]
    fn prefix_cost_is_input_independent() {
        let (s1, t1) = random_row(256, 0.0, 5);
        let (s2, t2) = random_row(256, 0.95, 6);
        let (_, c1) = prefix_resolve(&s1, &t1);
        let (_, c2) = prefix_resolve(&s2, &t2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn lazy_cost_grows_with_dd_activity() {
        // And both resolutions still agree on these adversarial rows.
        let (s_q, t_q) = quiet_row(256, 7);
        let (s_a, t_a) = active_row(256, 8);
        let (d_q, c_q) = lazy_f_resolve(&s_q, &t_q);
        let (d_a, c_a) = lazy_f_resolve(&s_a, &t_a);
        assert_eq!(d_q, scalar_resolve(&s_q, &t_q));
        assert_eq!(d_a, scalar_resolve(&s_a, &t_a));
        assert!(c_a.votes > 2 * c_q.votes, "active {c_a:?} vs quiet {c_q:?}");
    }

    #[test]
    fn empty_and_boundary_rows() {
        let (d, _) = lazy_f_resolve(&[], &[]);
        assert!(d.is_empty());
        let (d, _) = prefix_resolve(&[W_NEG_INF], &[W_NEG_INF]);
        assert_eq!(d, vec![W_NEG_INF]);
    }
}
