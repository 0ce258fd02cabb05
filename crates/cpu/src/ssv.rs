//! SSV — the Single-Segment Viterbi pre-filter (an *extension* beyond the
//! paper: HMMER 3.1 added it in front of MSV). Only the specifications
//! live here, as the reference `h3w_core::ssv_warp` and the `ext_ssv`
//! experiment are checked against; the CPU funnel does not run an SSV
//! stage (EXPERIMENTS.md records why).
//!
//! SSV scores the best **single** ungapped diagonal segment: the MSV model
//! of Fig. 2 without the `J` state. Two consequences make it faster than
//! MSV on every architecture:
//!
//! * `xB` is a constant — no per-row `xJ`/`xB` update chain;
//! * only the *global* cell maximum matters — no per-row reduction; one
//!   horizontal max at the end of the whole sequence.
//!
//! Same 8-bit biased-byte pipeline as the MSV filter
//! ([`h3w_hmm::msvprofile`]), so the scalar and warp versions are
//! bit-exact with each other. Canonical recurrence (saturating u8):
//!
//! ```text
//! xB = BASE ⊖ tjbm (constant);  dp[·] = 0
//! for each residue x:
//!     for k = 1..=M:
//!         sv = max(dp[k-1] (prev row), xB) ⊕ bias ⊖ rbv[x][k]
//!         xmax = max(xmax, sv);  dp[k] = sv
//! if xmax ≥ 255 − bias ⇒ overflow (+∞)
//! score = (xmax − BASE)/scale + ln½ + move      // E→C, C→T
//! ```

use crate::quantized::MsvOutcome;
use h3w_hmm::alphabet::Residue;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;

/// Convert a final SSV `xmax` byte to nats — delegates to
/// [`MsvProfile::ssv_score_to_nats`] (the score system owns conversions).
pub fn ssv_score_to_nats(om: &MsvProfile, xmax: u8, len: usize) -> f32 {
    om.ssv_score_to_nats(xmax, len)
}

/// Float-space SSV reference (free-loop single-segment model).
#[allow(clippy::needless_range_loop)] // the 1-based DP index mirrors the spec
pub fn ssv_reference(p: &Profile, seq: &[Residue]) -> f32 {
    let m = p.m;
    let xs = p.specials_for(seq.len());
    let entry = xs.move_sc + p.msv_entry(); // B reached from N (free loop)
    let mut row = vec![f32::NEG_INFINITY; m + 1];
    let mut best = f32::NEG_INFINITY;
    for &x in seq {
        let mut diag = row[0];
        for k in 1..=m {
            let sv = p.msc[k][x as usize] + diag.max(entry);
            diag = row[k];
            row[k] = sv;
            best = best.max(sv);
        }
    }
    best + 0.5f32.ln() + xs.move_sc
}

/// Scalar 8-bit SSV filter (the executable spec).
pub fn ssv_filter_scalar(om: &MsvProfile, seq: &[Residue]) -> MsvOutcome {
    let m = om.m;
    let lc = om.len_costs(seq.len());
    let overflow_at = om.overflow_limit();
    let xb = om.base.saturating_sub(lc.tjbm); // constant: no J re-entry
    let mut dp = vec![0u8; m + 1];
    let mut xmax = 0u8;
    for &x in seq {
        let row = om.cost_row(x);
        let mut diag = dp[0];
        for k in 1..=m {
            let sv = diag
                .max(xb)
                .saturating_add(om.bias)
                .saturating_sub(row[k - 1]);
            diag = dp[k];
            dp[k] = sv;
            xmax = xmax.max(sv);
        }
        if xmax >= overflow_at {
            return MsvOutcome {
                xj: 255,
                overflow: true,
                score: MsvProfile::overflow_score(),
            };
        }
    }
    MsvOutcome {
        xj: xmax,
        overflow: false,
        score: ssv_score_to_nats(om, xmax, seq.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::msv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::calibrate::random_seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(m: usize, seed: u64) -> (Profile, MsvProfile) {
        let bg = NullModel::new();
        let core = synthetic_model(m, seed, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        (p, om)
    }

    #[test]
    fn quantized_tracks_float_reference() {
        let (p, om) = setup(50, 7);
        let mut rng = StdRng::seed_from_u64(32);
        for len in [30usize, 120, 400] {
            let seq = random_seq(&mut rng, len);
            let q = ssv_filter_scalar(&om, &seq);
            assert!(!q.overflow);
            let f = ssv_reference(&p, &seq);
            assert!((q.score - f).abs() < 2.0, "len {len}: {} vs {f}", q.score);
        }
    }

    #[test]
    fn msv_dominates_ssv() {
        // Multihit re-entry can only help: in offset space
        // MSV xJ ≥ SSV xmax ⊖ tec on every input.
        let (_, om) = setup(40, 9);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let seq = random_seq(&mut rng, 150);
            let ssv = ssv_filter_scalar(&om, &seq);
            let msv = msv_filter_scalar(&om, &seq);
            if msv.overflow || ssv.overflow {
                continue;
            }
            let tec = om.len_costs(seq.len()).tec;
            assert!(
                msv.xj >= ssv.xj.saturating_sub(tec),
                "msv {} < ssv {} - tec {}",
                msv.xj,
                ssv.xj,
                tec
            );
        }
    }

    #[test]
    fn single_strong_segment_scores_like_msv() {
        // With exactly one planted motif, SSV and MSV see the same best
        // segment; their byte scores differ only by the E→J-vs-E→C path.
        let bg = NullModel::new();
        let core = synthetic_model(30, 17, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(34);
        let mut seq = random_seq(&mut rng, 160);
        seq[60..90].copy_from_slice(&core.consensus);
        let ssv = ssv_filter_scalar(&om, &seq);
        let msv = msv_filter_scalar(&om, &seq);
        if !(ssv.overflow || msv.overflow) {
            let diff = (msv.xj as i32 - (ssv.xj as i32 - om.len_costs(160).tec as i32)).abs();
            assert!(diff <= 1, "msv {} vs ssv {}", msv.xj, ssv.xj);
        }
    }

    #[test]
    fn empty_sequence() {
        let (_, om) = setup(10, 2);
        let out = ssv_filter_scalar(&om, &[]);
        assert_eq!(out.xj, 0);
        assert!(!out.overflow);
    }
}
