//! The 8-bit quantized MSV score system — HMMER's `P7_OPROFILE` MSV part.
//!
//! The MSV filter (Fig. 2) scores with saturating unsigned bytes in
//! "third-bit" units: `scale = 3/ln2` per nat, offset [`MsvProfile::BASE`].
//! Emission scores are stored *biased*: `rbv = clamp(bias − round(scale·msc))`
//! so the DP adds `bias` then subtracts `rbv`, which nets `+round(scale·msc)`
//! with a saturation floor at 0 standing in for −∞.
//!
//! Every MSV implementation in this workspace — the scalar quantized
//! reference, the striped 16-lane CPU filter and the warp-synchronous GPU
//! kernel — consumes this table and MUST produce bit-identical `xJ` values;
//! the canonical recurrence is documented on [`MsvProfile`].

use crate::profile::Profile;

/// Length-dependent special-transition costs of the MSV filter, quantized
/// to bytes (costs are *subtracted* with saturation at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsvLenCosts {
    /// `N/J→B` move cost plus the flat `B→Mk` entry cost, combined
    /// (HMMER's `tjbmv`): subtracted when refreshing `xB`.
    pub tjbm: u8,
    /// `E→J` cost (= −round(scale·ln ½) = 3 third-bits).
    pub tec: u8,
}

/// 8-bit MSV score tables for one profile.
///
/// Canonical filter recurrence (offset space; all ops saturating u8):
///
/// ```text
/// xJ = 0;  dp[k] = 0 for all k;  xB = BASE ⊖ tjbm
/// for each residue x (row i):
///     xE = 0
///     for k = 1..=M:
///         sv    = max(dp[k-1] (prev row), xB)   // diagonal dependency
///         sv    = sv ⊕ bias ⊖ rbv[x][k]
///         xE    = max(xE, sv)
///         dp[k] = sv                            // in-place row update
///     if xE ≥ 255 − bias: overflow ⇒ score = +∞ (sequence passes filter)
///     xJ = max(xJ, xE ⊖ tec)
///     xB = max(BASE, xJ) ⊖ tjbm
/// return xJ
/// ```
///
/// where `⊕`/`⊖` are saturating add/sub and `dp[0]` is 0 (−∞).
#[derive(Debug, Clone)]
pub struct MsvProfile {
    /// Model length `M`.
    pub m: usize,
    /// Third-bits per nat.
    pub scale: f32,
    /// Score offset representing 0 nats.
    pub base: u8,
    /// Emission bias (the largest positive emission, in third-bits).
    pub bias: u8,
    /// Biased emission costs, code-major: `rbv[code * m + (k-1)]`.
    rbv: Vec<u8>,
}

impl MsvProfile {
    /// The fixed score offset (HMMER's `om->base_b`).
    pub const BASE: u8 = 190;

    /// Build the 8-bit MSV tables from a configured profile.
    pub fn from_profile(p: &Profile) -> MsvProfile {
        let scale = 3.0 / std::f32::consts::LN_2;
        let bias = unbiased_cost(scale, -p.max_msc.max(0.0));
        let m = p.m;
        let mut rbv = vec![0u8; crate::alphabet::N_CODES * m];
        for code in 0..crate::alphabet::N_CODES {
            for k in 1..=m {
                let sc = p.msc[k][code];
                rbv[code * m + (k - 1)] = biased_cost(scale, bias, sc);
            }
        }
        MsvProfile {
            m,
            scale,
            base: Self::BASE,
            bias,
            rbv,
        }
    }

    /// Biased emission cost for residue `code` at model position `k0`
    /// (0-based, i.e. node `k0+1`).
    #[inline(always)]
    pub fn cost(&self, code: u8, k0: usize) -> u8 {
        self.rbv[code as usize * self.m + k0]
    }

    /// Full cost row for one residue code (`m` entries).
    #[inline]
    pub fn cost_row(&self, code: u8) -> &[u8] {
        &self.rbv[code as usize * self.m..(code as usize + 1) * self.m]
    }

    /// Quantized special costs for a target of length `len`.
    ///
    /// `tjbm` combines the `N/J→B` move (`ln(3/(L+3))`) with the flat MSV
    /// entry `ln(2/(M(M+1)))`; `tec` is the `E→J`/`E→C` cost (`ln ½`).
    pub fn len_costs(&self, len: usize) -> MsvLenCosts {
        let l = len as f32;
        let tjb = -self.scale * (3.0 / (l + 3.0)).ln();
        let tbm = -self.scale * (2.0 / ((self.m as f32) * (self.m as f32 + 1.0))).ln();
        MsvLenCosts {
            tjbm: sat_u8(tjb.round() + tbm.round()),
            tec: sat_u8((self.scale * std::f32::consts::LN_2).round()),
        }
    }

    /// Overflow threshold: an `xE` at or above this means the biased byte
    /// pipeline saturated and the true score is off-scale high.
    #[inline]
    pub fn overflow_limit(&self) -> u8 {
        255 - self.bias
    }

    /// Convert a final filter `xJ` byte to nats.
    ///
    /// The filter runs in the *free-loop* approximation (N/C/J self-loops
    /// cost 0, exactly as HMMER's MSVFilter); the returned score is
    /// `(xJ − base)/scale` plus the final `C→T` move. Comparable to the
    /// free-loop float reference, and to the full-model reference after
    /// its `≈ −3 nat` loop correction (HMMER applies the same constant).
    pub fn score_to_nats(&self, xj: u8, len: usize) -> f32 {
        let l = len as f32;
        (xj as f32 - self.base as f32) / self.scale + (3.0 / (l + 3.0)).ln()
    }

    /// Score reported for an overflowed filter pass (+∞ ⇒ always passes).
    pub fn overflow_score() -> f32 {
        f32::INFINITY
    }
}

/// Quantize a non-positive nat score to an unsigned byte *cost*
/// (HMMER's `unbiased_byteify`).
fn unbiased_cost(scale: f32, sc: f32) -> u8 {
    sat_u8((-scale * sc).round())
}

/// Quantize a nat score to a *biased* byte cost (HMMER's `biased_byteify`):
/// `bias − round(scale·sc)`, saturated to `0..=255`.
fn biased_cost(scale: f32, bias: u8, sc: f32) -> u8 {
    if sc == f32::NEG_INFINITY {
        return 255;
    }
    sat_u8(bias as f32 - (scale * sc).round())
}

fn sat_u8(v: f32) -> u8 {
    if v.is_nan() {
        255
    } else {
        v.clamp(0.0, 255.0) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::NullModel;
    use crate::build::{synthetic_model, BuildParams};

    fn msv(m: usize) -> (Profile, MsvProfile) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 11, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        (p, om)
    }

    #[test]
    fn bias_covers_best_emission() {
        let (p, om) = msv(80);
        // The consensus emission must quantize to a net *gain*:
        // bias - rbv = round(scale*msc) > 0 somewhere.
        let mut best_gain = 0i32;
        for code in 0..20u8 {
            for k0 in 0..om.m {
                best_gain = best_gain.max(om.bias as i32 - om.cost(code, k0) as i32);
            }
        }
        let expect = (om.scale * p.max_msc).round() as i32;
        assert_eq!(best_gain, expect.min(om.bias as i32));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn quantization_error_bounded() {
        let (p, om) = msv(60);
        for code in 0..20u8 {
            for k in 1..=om.m {
                let sc = p.msc[k][code as usize];
                let q = om.bias as f32 - om.cost(code, k - 1) as f32; // round(scale*sc), unless clamped
                let exact = om.scale * sc;
                if exact > -(om.cost(code, k - 1) as f32) && om.cost(code, k - 1) < 255 {
                    assert!(
                        (q - exact).abs() <= 0.5 + 1e-3,
                        "code {code} k {k}: q {q} exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn neg_inf_maps_to_max_cost() {
        let (_, om) = msv(10);
        // Gap codes score -inf.
        assert_eq!(om.cost(27, 0), 255);
    }

    #[test]
    fn tec_is_three_thirdbits() {
        let (_, om) = msv(10);
        assert_eq!(om.len_costs(100).tec, 3);
    }

    #[test]
    fn tjbm_grows_with_model_size() {
        let (_, small) = msv(10);
        let (_, large) = msv(500);
        assert!(large.len_costs(100).tjbm > small.len_costs(100).tjbm);
    }

    #[test]
    fn score_round_trip_near_linear() {
        let (_, om) = msv(10);
        let s1 = om.score_to_nats(200, 100);
        let s2 = om.score_to_nats(210, 100);
        let per_byte = 1.0 / om.scale;
        assert!(((s2 - s1) - 10.0 * per_byte).abs() < 1e-4);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cost_row_matches_cost() {
        let (_, om) = msv(33);
        let row = om.cost_row(5);
        assert_eq!(row.len(), 33);
        for k0 in 0..33 {
            assert_eq!(row[k0], om.cost(5, k0));
        }
    }
}
