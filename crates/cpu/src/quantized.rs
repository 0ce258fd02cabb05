//! Scalar implementations of the quantized filter pipelines — the
//! executable specification.
//!
//! These walk the canonical recurrences documented in
//! [`h3w_hmm::msvprofile`] and [`h3w_hmm::vitprofile`] cell by cell, in
//! order, with no striping and no laziness. The striped CPU filters and the
//! warp-synchronous GPU kernels must reproduce their `xJ`/`xC` outputs
//! **bit-exactly** — that equality is what "preserving the sensitivity and
//! accuracy of HMMER 3.0" (paper abstract) means operationally.

use h3w_hmm::alphabet::Residue;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::vitprofile::{wadd, VitProfile, W_NEG_INF};

/// Outcome of an 8-bit MSV filter pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MsvOutcome {
    /// Final `xJ` byte (meaningless when `overflow` is set).
    pub xj: u8,
    /// The biased byte pipeline saturated: the true score is off-scale
    /// high and the sequence unconditionally passes the filter.
    pub overflow: bool,
    /// Score in nats (+∞ on overflow).
    pub score: f32,
}

/// Outcome of a 16-bit Viterbi filter pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VitOutcome {
    /// Final `xC` word.
    pub xc: i16,
    /// Score in nats (−∞ if no path reached `C`).
    pub score: f32,
}

/// Scalar 8-bit MSV filter (reference for the striped and warp versions).
pub fn msv_filter_scalar(om: &MsvProfile, seq: &[Residue]) -> MsvOutcome {
    let m = om.m;
    let lc = om.len_costs(seq.len());
    let overflow_at = om.overflow_limit();

    let mut dp = vec![0u8; m + 1]; // dp[0] stays 0 (= −∞)
    let mut xj = 0u8;
    let mut xb = om.base.saturating_sub(lc.tjbm);
    for &x in seq {
        let row = om.cost_row(x);
        let mut xe = 0u8;
        let mut diag = dp[0];
        for k in 1..=m {
            let sv = diag
                .max(xb)
                .saturating_add(om.bias)
                .saturating_sub(row[k - 1]);
            diag = dp[k];
            dp[k] = sv;
            xe = xe.max(sv);
        }
        if xe >= overflow_at {
            return MsvOutcome {
                xj: 255,
                overflow: true,
                score: MsvProfile::overflow_score(),
            };
        }
        xj = xj.max(xe.saturating_sub(lc.tec));
        xb = om.base.max(xj).saturating_sub(lc.tjbm);
    }
    MsvOutcome {
        xj,
        overflow: false,
        score: om.score_to_nats(xj, seq.len()),
    }
}

/// Scalar 16-bit Viterbi filter with exact in-order D→D propagation
/// (reference for the Lazy-F implementations). A saturated row maximum
/// means the score is off-scale high: the filter returns +∞ immediately
/// (HMMER's `eslERANGE` convention), `xc = i16::MAX`.
pub fn vit_filter_scalar(om: &VitProfile, seq: &[Residue]) -> VitOutcome {
    let m = om.m;
    let ls = om.len_scores(seq.len());

    let mut dpm = vec![W_NEG_INF; m + 1];
    let mut dpi = vec![W_NEG_INF; m + 1];
    let mut dpd = vec![W_NEG_INF; m + 1];
    let mut xn = om.base;
    let mut xj = W_NEG_INF;
    let mut xc = W_NEG_INF;
    let mut xb = wadd(xn, ls.move_w);

    for &x in seq {
        let row = om.emis_row(x);
        let mut xe = W_NEG_INF;
        let mut diag_m = W_NEG_INF;
        let mut diag_i = W_NEG_INF;
        let mut diag_d = W_NEG_INF;
        let mut cur_m = W_NEG_INF;
        let mut cur_d = W_NEG_INF;
        for k in 1..=m {
            let k0 = k - 1;
            let old_m = dpm[k];
            let old_i = dpi[k];
            let old_d = dpd[k];
            let mut mv = wadd(xb, om.bmk_in[k0]);
            mv = mv.max(wadd(diag_m, om.tmm_in[k0]));
            mv = mv.max(wadd(diag_i, om.tim_in[k0]));
            mv = mv.max(wadd(diag_d, om.tdm_in[k0]));
            mv = wadd(mv, row[k0]);
            let iv = wadd(old_m, om.tmi_self[k0]).max(wadd(old_i, om.tii_self[k0]));
            let dv = wadd(cur_m, om.tmd_in[k0]).max(wadd(cur_d, om.tdd_in[k0]));
            xe = xe.max(mv);
            diag_m = old_m;
            diag_i = old_i;
            diag_d = old_d;
            dpm[k] = mv;
            dpi[k] = iv;
            dpd[k] = dv;
            cur_m = mv;
            cur_d = dv;
        }
        if xe == i16::MAX {
            return VitOutcome {
                xc: i16::MAX,
                score: f32::INFINITY,
            };
        }
        xj = wadd(xj, ls.loop_w).max(wadd(xe, ls.e_to_j));
        xc = wadd(xc, ls.loop_w).max(wadd(xe, ls.e_to_c));
        xn = wadd(xn, ls.loop_w);
        xb = wadd(xn.max(xj), ls.move_w);
    }
    VitOutcome {
        xc,
        score: om.score_to_nats(xc, seq.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{msv_filter_model, viterbi_filter_model};
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::calibrate::random_seq;
    use h3w_hmm::profile::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(m: usize, seed: u64) -> (Profile, MsvProfile, VitProfile) {
        let bg = NullModel::new();
        let core = synthetic_model(m, seed, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let msv = MsvProfile::from_profile(&p);
        let vit = VitProfile::from_profile(&p);
        (p, msv, vit)
    }

    #[test]
    fn msv_quantized_tracks_float_reference() {
        let (p, om, _) = setup(50, 31);
        let mut rng = StdRng::seed_from_u64(77);
        for len in [40usize, 120, 400] {
            let seq = random_seq(&mut rng, len);
            let q = msv_filter_scalar(&om, &seq);
            assert!(!q.overflow);
            let f = msv_filter_model(&p, &seq);
            // Third-bit quantization over a random-walk of roundings;
            // generous but meaningful bound.
            assert!(
                (q.score - f).abs() < 2.0,
                "len {len}: quantized {} vs float {f}",
                q.score
            );
        }
    }

    #[test]
    fn msv_homolog_scores_high_or_overflows() {
        let bg = NullModel::new();
        let core = synthetic_model(80, 5, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(6);
        let hom = h3w_seqdb::gen::sample_homolog(&mut rng, &core, 15);
        let q = msv_filter_scalar(&om, &hom);
        let bgq = msv_filter_scalar(&om, &random_seq(&mut rng, hom.len()));
        assert!(!bgq.overflow);
        assert!(
            q.overflow || q.score > bgq.score + 5.0,
            "homolog {:?} vs background {:?}",
            q,
            bgq
        );
    }

    #[test]
    fn vit_quantized_tracks_float_reference() {
        let (p, _, om) = setup(50, 31);
        let mut rng = StdRng::seed_from_u64(78);
        for len in [40usize, 120, 400] {
            let seq = random_seq(&mut rng, len);
            let q = vit_filter_scalar(&om, &seq);
            let f = viterbi_filter_model(&p, &seq);
            // 1/500-bit quantization: tight tolerance scaled to path length.
            let tol = 0.02 + 2.0 * (len + 50) as f32 / om.scale;
            assert!(
                (q.score - f).abs() < tol,
                "len {len}: quantized {} vs float {f} (tol {tol})",
                q.score
            );
        }
    }

    #[test]
    fn vit_empty_sequence_is_neg_inf() {
        let (_, _, om) = setup(10, 2);
        let out = vit_filter_scalar(&om, &[]);
        assert_eq!(out.xc, W_NEG_INF);
        assert_eq!(out.score, f32::NEG_INFINITY);
    }

    #[test]
    fn msv_empty_sequence_is_floor() {
        let (_, om, _) = setup(10, 2);
        let out = msv_filter_scalar(&om, &[]);
        assert_eq!(out.xj, 0);
        assert!(!out.overflow);
    }

    #[test]
    fn msv_embedded_motif_beats_background_at_same_length() {
        // Same sequence length ⇒ same length model, so xJ is comparable:
        // planting the consensus in the middle can only raise the score.
        let bg = NullModel::new();
        let core = synthetic_model(30, 3, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(9);
        let plain = random_seq(&mut rng, 200);
        let mut planted = plain.clone();
        planted[80..80 + core.consensus.len()].copy_from_slice(&core.consensus);
        let a = msv_filter_scalar(&om, &plain);
        let b = msv_filter_scalar(&om, &planted);
        assert!(!a.overflow);
        assert!(
            b.overflow || b.xj > a.xj,
            "planted consensus {b:?} should beat background {a:?}"
        );
    }

    #[test]
    fn deterministic() {
        let (_, msv, vit) = setup(25, 4);
        let mut rng = StdRng::seed_from_u64(10);
        let seq = random_seq(&mut rng, 100);
        assert_eq!(msv_filter_scalar(&msv, &seq), msv_filter_scalar(&msv, &seq));
        assert_eq!(vit_filter_scalar(&vit, &seq), vit_filter_scalar(&vit, &seq));
    }
}
