//! Score-distribution calibration and P-values — HMMER's `p7_Calibrate`.
//!
//! HMMER 3.0's key statistical result (Eddy 2008, cited as \[3\] in the paper)
//! is that optimal-alignment (Viterbi/MSV) score maxima follow a Gumbel
//! distribution with a *known* slope `λ = log 2` **per bit** — i.e. 1.0
//! per nat, the unit used throughout this workspace — and Forward scores
//! follow an exponential tail with the same `λ`. Only the location parameter
//! (`μ` for Gumbel, `τ` for the exponential tail) must be determined per
//! model, by scoring a small sample of random background sequences.
//!
//! This module is scorer-agnostic: [`sample`] draws the random
//! sequences once, the caller scores them however it sweeps a database
//! (`h3w-pipeline` uses the pooled batch kernels its funnel runs), and
//! [`Calibration::fit`] fits the locations from the score vectors. The
//! residues come from [`random_seq`], the one background sampler of the
//! workspace: an exact table of [`crate::categorical::scan`], so the
//! sample is the scan's, bit for bit.

use crate::alphabet::Residue;
use crate::categorical;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The universal score slope: `λ = log 2` per bit = `1.0` per nat.
/// (A score one bit above the location halves the P-value; scores here are
/// in nats, so the slope per nat is `ln2 / ln2 = 1`.)
pub const LAMBDA: f32 = 1.0;

/// Default number of random sequences per calibration fit (HMMER uses 200
/// for the Gumbel fits; we use more because the exponential tail fit keeps
/// only the top few percent of the sample).
pub const DEFAULT_N: usize = 500;

/// Default random-sequence length for calibration (HMMER uses 100).
pub const DEFAULT_LEN: usize = 100;

/// Fitted score-distribution locations for one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Gumbel location of MSV filter scores.
    pub mu_msv: f32,
    /// Gumbel location of Viterbi filter scores.
    pub mu_vit: f32,
    /// Exponential-tail location of Forward scores.
    pub tau_fwd: f32,
    /// Shared slope (`log 2` per bit = 1.0 per nat).
    pub lambda: f32,
}

/// Draw a random background sequence of length `len` (i.i.d. Swiss-Prot
/// composition) — HMMER's synthetic calibration targets. One uniform per
/// residue, through a table that returns exactly what
/// [`categorical::scan`] over `BACKGROUND_F` would.
pub fn random_seq(rng: &mut StdRng, len: usize) -> Vec<Residue> {
    let table = categorical::background();
    (0..len).map(|_| table.draw(rng.gen())).collect()
}

/// Maximum-likelihood Gumbel location fit with fixed slope (HMMER's
/// `esl_gumbel_FitCompleteLoc`): `μ = −(1/λ)·ln( (1/n) Σ e^{−λ s_i} )`,
/// computed stably. Unlike the method of moments, this weights the
/// high-scoring tail correctly when the empirical slope deviates from the
/// conjectured `λ = ln 2`.
pub fn fit_gumbel_mu(scores: &[f32], lambda: f32) -> f32 {
    assert!(!scores.is_empty(), "cannot fit an empty sample");
    let l = lambda as f64;
    let min = scores.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
    let sum: f64 = scores.iter().map(|&s| (-l * (s as f64 - min)).exp()).sum();
    (min - (sum / scores.len() as f64).ln() / l) as f32
}

/// Exponential-tail location fit with fixed slope (HMMER fits the top
/// `tail_p` fraction): `τ = q_{1−tail_p} + ln(tail_p)/λ`.
pub fn fit_exp_tail_tau(scores: &[f32], lambda: f32, tail_p: f32) -> f32 {
    assert!(!scores.is_empty(), "cannot fit an empty sample");
    assert!(tail_p > 0.0 && tail_p < 1.0);
    let mut sorted: Vec<f32> = scores.to_vec();
    sorted.sort_by(f32::total_cmp);
    let idx = ((1.0 - tail_p) * (sorted.len() as f32 - 1.0)).round() as usize;
    sorted[idx] + tail_p.ln() / lambda
}

/// P-value of a score under a Gumbel with location `mu`, slope `lambda`:
/// `P(S > s) = 1 − exp(−e^{−λ(s−μ)})`, computed stably.
pub fn gumbel_pvalue(score: f32, mu: f32, lambda: f32) -> f64 {
    let x = -(lambda as f64) * (score as f64 - mu as f64);
    -f64::exp_m1(-x.exp())
}

/// P-value of a score under an exponential tail with location `tau`:
/// `P(S > s) = min(1, e^{−λ(s−τ)})`.
pub fn exp_pvalue(score: f32, tau: f32, lambda: f32) -> f64 {
    let x = (lambda as f64) * (score as f64 - tau as f64);
    (-x).exp().min(1.0)
}

/// Draw the calibration sample: `n` random background sequences of
/// length `len`, deterministic in `seed`. Every stage of one model is
/// calibrated on this one draw.
pub fn sample(seed: u64, n: usize, len: usize) -> Vec<Vec<Residue>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| random_seq(&mut rng, len)).collect()
}

impl Calibration {
    /// Fit all three stages of the pipeline from the null-corrected
    /// scores (nats) each stage gave one [`sample`].
    pub fn fit(msv: &[f32], vit: &[f32], fwd: &[f32]) -> Calibration {
        Calibration {
            mu_msv: fit_gumbel_mu(msv, LAMBDA),
            mu_vit: fit_gumbel_mu(vit, LAMBDA),
            tau_fwd: fit_exp_tail_tau(fwd, LAMBDA, 0.04),
            lambda: LAMBDA,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gumbel_sample(n: usize, mu: f64, lambda: f64, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-12..1.0);
                (mu - (-u.ln()).ln() / lambda) as f32
            })
            .collect()
    }

    #[test]
    fn gumbel_fit_recovers_mu() {
        let sample = gumbel_sample(20_000, 4.2, LAMBDA as f64, 1);
        let mu = fit_gumbel_mu(&sample, LAMBDA);
        assert!((mu - 4.2).abs() < 0.1, "fit {mu}");
    }

    #[test]
    fn exp_tail_fit_recovers_tau() {
        // Pure exponential beyond tau = 2.0 with mass tail_p at tau.
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = LAMBDA as f64;
        let sample: Vec<f32> = (0..50_000)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-12..1.0);
                if u < 0.96 {
                    (2.0 * u / 0.96) as f32 // bulk below tau
                } else {
                    (2.0 - ((1.0 - u) / 0.04).ln() / lambda) as f32
                }
            })
            .collect();
        // The true tail is P(S>s) = 0.04·e^{−λ(s−2)} = e^{−λ(s−τ*)} with
        // τ* = 2 + ln(0.04)/λ.
        let tau_true = 2.0 + 0.04f32.ln() / LAMBDA;
        let tau = fit_exp_tail_tau(&sample, LAMBDA, 0.04);
        assert!((tau - tau_true).abs() < 0.15, "fit {tau}, true {tau_true}");
    }

    #[test]
    fn gumbel_pvalue_properties() {
        let p_at_mu = gumbel_pvalue(5.0, 5.0, LAMBDA);
        assert!((p_at_mu - (1.0 - 1.0 / std::f64::consts::E)).abs() < 1e-9);
        assert!(gumbel_pvalue(50.0, 5.0, LAMBDA) < 1e-9);
        assert!(gumbel_pvalue(-50.0, 5.0, LAMBDA) > 0.999_999);
        // Monotone decreasing in score.
        assert!(gumbel_pvalue(6.0, 5.0, LAMBDA) > gumbel_pvalue(7.0, 5.0, LAMBDA));
    }

    #[test]
    fn exp_pvalue_properties() {
        assert_eq!(exp_pvalue(-3.0, 0.0, LAMBDA), 1.0);
        // One *bit* above the location halves the P-value.
        let one_bit = std::f32::consts::LN_2;
        assert!((exp_pvalue(one_bit, 0.0, LAMBDA) - 0.5).abs() < 1e-6);
        assert!(exp_pvalue(30.0, 0.0, LAMBDA) < 1e-12);
    }

    #[test]
    fn high_scoring_tails_agree() {
        // The paper's §I: Gumbel and exponential with the same λ share their
        // high-scoring tail: for s ≫ μ=τ, Gumbel P ≈ e^{-λ(s-μ)}.
        for s in [10.0f32, 15.0, 20.0] {
            let g = gumbel_pvalue(s, 0.0, LAMBDA);
            let e = exp_pvalue(s, 0.0, LAMBDA);
            assert!((g / e - 1.0).abs() < 1e-2, "s={s}: {g} vs {e}");
        }
    }

    #[test]
    fn random_seq_deterministic_and_standard() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let sa = random_seq(&mut a, 500);
        let sb = random_seq(&mut b, 500);
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|&r| (r as usize) < 20));
    }

    #[test]
    fn sample_is_one_deterministic_draw() {
        let a = sample(9, 7, 30);
        assert_eq!(a, sample(9, 7, 30));
        assert_ne!(a, sample(10, 7, 30));
        assert_eq!(a.len(), 7);
        assert!(a.iter().all(|s| s.len() == 30));
        // One stream, drawn sequence after sequence.
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(a[0], random_seq(&mut rng, 30));
        assert_eq!(a[1], random_seq(&mut rng, 30));
    }

    #[test]
    fn fit_wires_all_three() {
        let cal = Calibration::fit(&[60.0; 50], &[1.0; 50], &[0.5; 50]);
        // Constant samples: the ML location fit returns the constant.
        assert!((cal.mu_msv - 60.0).abs() < 1e-3);
        assert!((cal.mu_vit - 1.0).abs() < 1e-3);
        assert!(cal.tau_fwd < 0.5 + 1e-6);
    }

    #[test]
    fn exp_tail_fit_survives_non_finite_scores() {
        // A NaN used to panic the sort. total_cmp orders −∞ < finite <
        // +∞ < NaN, so non-finite scores at the ends of the sample do
        // not move the quantile as long as they stay outside the fitted
        // tail: here −∞ / negative NaN stand in for the two lowest
        // scores and +∞ / NaN for the two highest.
        let clean: Vec<f32> = (0..500).map(|i| i as f32 * 0.01).collect();
        let want = fit_exp_tail_tau(&clean, LAMBDA, 0.04);
        let mut dirty = clean.clone();
        dirty[0] = f32::NEG_INFINITY;
        dirty[1] = -f32::NAN;
        dirty[498] = f32::INFINITY;
        dirty[499] = f32::NAN;
        dirty.reverse();
        let got = fit_exp_tail_tau(&dirty, LAMBDA, 0.04);
        assert_eq!(got.to_bits(), want.to_bits());
    }
}
