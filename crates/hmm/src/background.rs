//! The null (background) model — HMMER's `p7_bg`.
//!
//! Null model #1 is a one-state HMM emitting residues i.i.d. from the
//! background composition with a geometric length distribution tuned to the
//! target sequence length: self-loop probability `p1 = L/(L+1)`.
//! All profile scores in this workspace are log-odds in **nats** against
//! this model.

use crate::alphabet::{expand_scores, BACKGROUND_F, N_CODES, N_STANDARD};

/// The background model: residue frequencies plus the null length model.
#[derive(Debug, Clone)]
pub struct NullModel {
    /// Per-code emission probability (degenerates get the background-weighted
    /// member mean, gaps/pad get 0).
    pub f: [f32; N_CODES],
    /// Self-loop probability `p1` of the null length model, set by
    /// [`NullModel::set_length`].
    pub p1: f32,
}

impl Default for NullModel {
    fn default() -> Self {
        Self::new()
    }
}

impl NullModel {
    /// Standard Swiss-Prot background composition, length model unset (L=350).
    pub fn new() -> Self {
        let mut bg = NullModel {
            f: expand_scores(&BACKGROUND_F, 0.0),
            p1: 0.0,
        };
        bg.set_length(350);
        bg
    }

    /// Configure the null length model for a target of length `len`
    /// (HMMER's `p7_bg_SetLength`): `p1 = L/(L+1)`.
    pub fn set_length(&mut self, len: usize) {
        self.p1 = len as f32 / (len as f32 + 1.0);
    }

    /// Null-model log score (nats) of a digital sequence of length `len`:
    /// `L·ln(p1) + ln(1−p1)`. The residue emission terms cancel in log-odds
    /// scoring and are *not* included (HMMER's `p7_bg_NullOne`).
    pub fn null1_score(&self, len: usize) -> f32 {
        len as f32 * self.p1.ln() + (1.0 - self.p1).ln()
    }

    /// Background frequencies over standard residues only.
    pub fn standard(&self) -> &[f32] {
        &self.f[..N_STANDARD]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_frequencies_normalized() {
        let bg = NullModel::new();
        let s: f32 = bg.standard().iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn length_model_monotone() {
        let mut bg = NullModel::new();
        bg.set_length(100);
        let p100 = bg.p1;
        bg.set_length(1000);
        assert!(bg.p1 > p100);
        assert!(bg.p1 < 1.0);
    }

    #[test]
    fn null1_score_matches_formula() {
        let mut bg = NullModel::new();
        bg.set_length(100);
        let expect = 100.0 * (100.0f32 / 101.0).ln() + (1.0f32 / 101.0).ln();
        assert!((bg.null1_score(100) - expect).abs() < 1e-4);
    }

    #[test]
    fn degenerate_freq_is_mean_of_members() {
        let bg = NullModel::new();
        // X averages the whole background: expected value of f under f.
        let x = bg.f[25];
        let mean: f32 = BACKGROUND_F.iter().map(|f| f * f).sum();
        assert!((x - mean).abs() < 1e-5);
    }
}
