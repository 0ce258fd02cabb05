//! The 16-bit quantized ViterbiFilter score system — HMMER's `P7_OPROFILE`
//! word-score part.
//!
//! The P7Viterbi filter (Fig. 3) scores with saturating signed 16-bit words
//! in 1/500-bit units (`scale = 500/ln2` per nat), offset
//! [`VitProfile::BASE`], with `-32768` standing in for −∞. Emission and
//! transition scores are signed and *added*; saturating adds reproduce SSE
//! `adds_epi16` semantics exactly, so the striped CPU filter and the
//! warp-synchronous GPU kernel are bit-identical.
//!
//! Transition tables are **destination-aligned**: index `k0 = k−1` holds the
//! scores *entering* state(s) of node `k`. That is the layout every DP inner
//! loop wants (a thread computing column `k` reads index `k0`), on CPU
//! stripes and GPU warps alike.
//!
//! Canonical recurrence (offset space, all adds saturating; `⊥ = −32768`;
//! `diag_*` are previous-row values at `k−1`, `old_*` previous-row values
//! at `k`):
//!
//! ```text
//! dpM/dpI/dpD[·] = ⊥;  xN = BASE;  xB = xN ⊕ move;  xJ = xC = ⊥
//! for each residue x (row i):
//!     xE = ⊥; cur_m = cur_d = ⊥           // values at k−1 of THIS row
//!     for k = 1..=M, k0 = k−1:
//!         m = max(xB ⊕ bmk_in[k0], diag_m ⊕ tmm_in[k0],
//!                 diag_i ⊕ tim_in[k0], diag_d ⊕ tdm_in[k0]) ⊕ emis[x][k0]
//!         i = max(old_m ⊕ tmi_self[k0], old_i ⊕ tii_self[k0])
//!         d = max(cur_m ⊕ tmd_in[k0], cur_d ⊕ tdd_in[k0])
//!         xE = max(xE, m)
//!     xJ = max(xJ ⊕ loop, xE ⊕ e_to_j)
//!     xC = max(xC ⊕ loop, xE ⊕ e_to_c)
//!     xN = xN ⊕ loop
//!     xB = max(xN, xJ) ⊕ move
//! score = (xC − BASE)/scale + move_nats
//! ```
//!
//! The striped and warp implementations compute `d` lazily (M→D seed in the
//! main pass, D→D closure via Lazy-F); their fixed point equals the exact
//! in-order `d` above.

use crate::alphabet::N_CODES;
use crate::profile::{Profile, NEG_INF};

/// −∞ sentinel of the 16-bit pipeline.
pub const W_NEG_INF: i16 = i16::MIN;

/// Length-dependent special-state scores, quantized to words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VitLenScores {
    /// `N/J/C` self-loop score (≤ 0).
    pub loop_w: i16,
    /// `N→B` / `J→B` move score, also the final `C→T` move.
    pub move_w: i16,
    /// `E→J` score (`ln ½` multihit).
    pub e_to_j: i16,
    /// `E→C` score.
    pub e_to_c: i16,
}

/// 16-bit Viterbi filter score tables for one profile (destination-aligned).
#[derive(Debug, Clone)]
pub struct VitProfile {
    /// Model length `M`.
    pub m: usize,
    /// 1/500-bit units per nat.
    pub scale: f32,
    /// Score offset representing 0 nats.
    pub base: i16,
    /// Emission scores, code-major: `rwv[code * m + k0]` (signed, added).
    rwv: Vec<i16>,
    /// `M_{k-1} → M_k`, at `k0 = k−1`; `k0 = 0` is −∞.
    pub tmm_in: Vec<i16>,
    /// `I_{k-1} → M_k`.
    pub tim_in: Vec<i16>,
    /// `D_{k-1} → M_k`.
    pub tdm_in: Vec<i16>,
    /// `M_{k-1} → D_k`.
    pub tmd_in: Vec<i16>,
    /// `D_{k-1} → D_k`.
    pub tdd_in: Vec<i16>,
    /// `M_k → I_k` (self node); `k0 = m−1` is −∞ (Plan-7 has no `I_M`).
    pub tmi_self: Vec<i16>,
    /// `I_k → I_k` self-loop; `k0 = m−1` is −∞.
    pub tii_self: Vec<i16>,
    /// Local entry `B → M_k`.
    pub bmk_in: Vec<i16>,
}

impl VitProfile {
    /// The fixed score offset (HMMER's `om->base_w`).
    pub const BASE: i16 = 12000;

    /// Build the 16-bit tables from a configured profile.
    pub fn from_profile(p: &Profile) -> VitProfile {
        let scale = 500.0 / std::f32::consts::LN_2;
        let m = p.m;
        let mut rwv = vec![W_NEG_INF; N_CODES * m];
        for code in 0..N_CODES {
            for k in 1..=m {
                rwv[code * m + (k - 1)] = wordify(scale, p.msc[k][code]);
            }
        }
        // Destination-aligned: entering node k means leaving node k-1, so
        // index k0 reads the profile's source arrays at k0 (= node k-1),
        // which are −∞ at 0 already.
        let dest = |v: &[f32]| -> Vec<i16> { (0..m).map(|k0| wordify(scale, v[k0])).collect() };
        // Self-node transitions at node k = k0+1.
        let selfn = |v: &[f32]| -> Vec<i16> {
            (0..m)
                .map(|k0| {
                    if k0 == m - 1 {
                        W_NEG_INF // no I_M
                    } else {
                        wordify(scale, v[k0 + 1])
                    }
                })
                .collect()
        };
        VitProfile {
            m,
            scale,
            base: Self::BASE,
            rwv,
            tmm_in: dest(&p.tmm),
            tim_in: dest(&p.tim),
            tdm_in: dest(&p.tdm),
            tmd_in: dest(&p.tmd),
            tdd_in: dest(&p.tdd),
            tmi_self: selfn(&p.tmi),
            tii_self: selfn(&p.tii),
            bmk_in: (0..m).map(|k0| wordify(scale, p.bmk[k0 + 1])).collect(),
        }
    }

    /// Emission score for residue `code` at model position `k0` (0-based).
    #[inline(always)]
    pub fn emis(&self, code: u8, k0: usize) -> i16 {
        self.rwv[code as usize * self.m + k0]
    }

    /// Full emission row for one residue code (`m` entries).
    #[inline]
    pub fn emis_row(&self, code: u8) -> &[i16] {
        &self.rwv[code as usize * self.m..(code as usize + 1) * self.m]
    }

    /// Quantized special scores for a target of length `len` (multihit local).
    pub fn len_scores(&self, len: usize) -> VitLenScores {
        let l = len as f32;
        VitLenScores {
            loop_w: wordify(self.scale, (l / (l + 3.0)).ln()),
            move_w: wordify(self.scale, (3.0 / (l + 3.0)).ln()),
            e_to_j: wordify(self.scale, 0.5f32.ln()),
            e_to_c: wordify(self.scale, 0.5f32.ln()),
        }
    }

    /// Convert a final `xC` word to nats (adds the final `C→T` move in
    /// float to avoid a second rounding). A saturated `xC` means the true
    /// score is off-scale high: +∞, unconditionally passing the filter —
    /// HMMER's `eslERANGE` convention.
    pub fn score_to_nats(&self, xc: i16, len: usize) -> f32 {
        if xc == W_NEG_INF {
            return NEG_INF;
        }
        if xc == i16::MAX {
            return f32::INFINITY;
        }
        let l = len as f32;
        (xc as f32 - self.base as f32) / self.scale + (3.0 / (l + 3.0)).ln()
    }
}

/// Saturating add with the SSE `adds_epi16` semantics the filters rely on.
#[inline(always)]
pub fn wadd(a: i16, b: i16) -> i16 {
    a.saturating_add(b)
}

/// Quantize a nat score to a word (HMMER's `wordify`).
pub fn wordify(scale: f32, sc: f32) -> i16 {
    if sc == NEG_INF || sc.is_nan() {
        return W_NEG_INF;
    }
    (scale * sc).round().clamp(-32767.0, 32767.0) as i16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::NullModel;
    use crate::build::{synthetic_model, BuildParams};

    fn vp(m: usize) -> (Profile, VitProfile) {
        let bg = NullModel::new();
        let core = synthetic_model(m, 23, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = VitProfile::from_profile(&p);
        (p, om)
    }

    #[test]
    fn wordify_rounds_and_floors() {
        let scale = 500.0 / std::f32::consts::LN_2;
        assert_eq!(wordify(scale, 0.0), 0);
        assert_eq!(wordify(scale, NEG_INF), W_NEG_INF);
        let one_nat = wordify(scale, 1.0);
        assert!((one_nat as f32 - scale).abs() <= 0.5);
    }

    #[test]
    fn emissions_match_profile_within_half_unit() {
        let (p, om) = vp(40);
        for code in 0..20u8 {
            for k in 1..=om.m {
                let exact = om.scale * p.msc[k][code as usize];
                let q = om.emis(code, k - 1) as f32;
                if exact.abs() < 32000.0 {
                    assert!((q - exact).abs() <= 0.5 + 1e-2);
                }
            }
        }
    }

    #[test]
    fn destination_alignment_boundaries() {
        let (p, om) = vp(40);
        // No transitions into node 1 from node 0.
        assert_eq!(om.tmm_in[0], W_NEG_INF);
        assert_eq!(om.tdd_in[0], W_NEG_INF);
        // tmm_in[k0] quantizes p.tmm[k0] (leaving node k0 = k-1).
        assert_eq!(om.tmm_in[5], wordify(om.scale, p.tmm[5]));
        // No I_M: self transitions at the last node are disabled.
        assert_eq!(om.tmi_self[om.m - 1], W_NEG_INF);
        assert_eq!(om.tii_self[om.m - 1], W_NEG_INF);
        // Interior self transitions quantize node k = k0+1.
        assert_eq!(om.tmi_self[3], wordify(om.scale, p.tmi[4]));
        // Entry into node k quantizes bmk[k].
        assert_eq!(om.bmk_in[0], wordify(om.scale, p.bmk[1]));
    }

    #[test]
    fn transitions_are_nonpositive() {
        let (_, om) = vp(40);
        for k0 in 1..om.m {
            assert!(om.tmm_in[k0] <= 0);
            assert!(om.tdd_in[k0] <= 0);
        }
        for k0 in 0..om.m {
            assert!(om.bmk_in[k0] <= 0);
        }
    }

    #[test]
    fn wadd_saturates() {
        assert_eq!(wadd(32000, 32000), i16::MAX);
        assert_eq!(wadd(W_NEG_INF, -100), W_NEG_INF);
        // Known (accepted) leak of the SSE semantics: -inf plus a positive
        // score rises slightly off the floor, exactly as `adds_epi16` does.
        assert_eq!(wadd(W_NEG_INF, 500), -32268);
    }

    #[test]
    fn len_scores_shrink_with_length() {
        let (_, om) = vp(20);
        let short = om.len_scores(50);
        let long = om.len_scores(5000);
        assert!(long.loop_w > short.loop_w); // closer to 0
        assert!(long.move_w < short.move_w);
        assert_eq!(short.e_to_j, wordify(om.scale, 0.5f32.ln()));
    }

    #[test]
    fn score_to_nats_handles_neg_inf() {
        let (_, om) = vp(20);
        assert_eq!(om.score_to_nats(W_NEG_INF, 100), NEG_INF);
        let s = om.score_to_nats(om.base, 100);
        assert!((s - (3.0f32 / 103.0).ln()).abs() < 1e-5);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn emis_row_matches_emis() {
        let (_, om) = vp(17);
        let row = om.emis_row(3);
        for k0 in 0..17 {
            assert_eq!(row[k0], om.emis(3, k0));
        }
    }
}
