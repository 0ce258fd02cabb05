//! Synthetic profile-HMM construction — the substitute for Pfam 27.0.
//!
//! The paper evaluates on Pfam models of sizes 48…2405 (§IV). The kernels
//! observe a model only through its size `M` and its quantized score tables,
//! so a seeded synthetic model of the same size exercises identical code
//! paths and resource footprints (see DESIGN.md §2). This module generates
//! such models, plus a sampler matching the Pfam model-size distribution
//! quoted in the paper (84.5% ≤ 400, 14.4% in 401..=1000, 1.1% > 1000).

use crate::alphabet::{BACKGROUND_F, N_STANDARD};
use crate::categorical;
use crate::plan7::{CoreModel, Node, NodeTrans};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The eight model sizes benchmarked in the paper (Figs. 9–11).
pub const PAPER_MODEL_SIZES: [usize; 8] = [48, 100, 200, 400, 800, 1002, 1528, 2405];

/// Number of protein families in Pfam 27.0 (pfamA + pfamB) per the paper.
pub const PFAM_N_FAMILIES: usize = 34_831;

/// Tunables for [`synthetic_model`].
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Mean probability mass on the consensus residue of a match column.
    pub conservation: f32,
    /// Half-width of the per-column jitter applied to `conservation`.
    pub conservation_jitter: f32,
    /// Mean M→M transition probability.
    pub t_mm: f32,
    /// Mean I→I self-loop probability.
    pub t_ii: f32,
    /// Mean D→D continuation probability.
    pub t_dd: f32,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            conservation: 0.70,
            conservation_jitter: 0.15,
            t_mm: 0.95,
            t_ii: 0.35,
            t_dd: 0.30,
        }
    }
}

impl BuildParams {
    /// A deliberately gappy parameterization (high D→D), used by the Lazy-F
    /// ablation (E8): the paper's §VI notes large models can take the D-D
    /// path in as much as 80% of transitions.
    pub fn gappy() -> Self {
        BuildParams {
            conservation: 0.55,
            conservation_jitter: 0.10,
            t_mm: 0.80,
            t_ii: 0.40,
            t_dd: 0.80,
        }
    }
}

/// Deterministically generate a Plan-7 core model of length `m`.
///
/// Each column gets a consensus residue drawn from the background, with
/// `conservation` mass on it and the remainder spread background-
/// proportionally; inserts emit the background; transitions are jittered
/// around the [`BuildParams`] means.
pub fn synthetic_model(m: usize, seed: u64, params: &BuildParams) -> CoreModel {
    assert!(m >= 1, "model length must be >= 1");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15 ^ (m as u64) << 32);
    let mut nodes = Vec::with_capacity(m);
    let mut consensus = Vec::with_capacity(m);
    for _ in 0..m {
        let cons = categorical::background().draw(rng.gen());
        consensus.push(cons);
        let c = (params.conservation
            + rng.gen_range(-params.conservation_jitter..=params.conservation_jitter))
        .clamp(0.25, 0.95);
        let mut mat = [0.0f32; N_STANDARD];
        let rest = 1.0 - c;
        for (x, p) in mat.iter_mut().enumerate() {
            *p = rest * BACKGROUND_F[x];
        }
        mat[cons as usize] += c;
        normalize(&mut mat);

        let ins = BACKGROUND_F;

        let mm = jitter(&mut rng, params.t_mm, 0.03).clamp(0.5, 0.98);
        let leftover = 1.0 - mm;
        let mi_frac = rng.gen_range(0.3..0.7);
        let mi = leftover * mi_frac;
        let md = leftover - mi;
        let ii = jitter(&mut rng, params.t_ii, 0.10).clamp(0.05, 0.9);
        let dd = jitter(&mut rng, params.t_dd, 0.10).clamp(0.05, 0.95);
        nodes.push(Node {
            mat,
            ins,
            t: NodeTrans {
                mm,
                mi,
                md,
                im: 1.0 - ii,
                ii,
                dm: 1.0 - dd,
                dd,
            },
        });
    }
    let model = CoreModel {
        name: format!("SYN{m:05}-{seed:08x}"),
        nodes,
        consensus,
    };
    debug_assert!(model.validate().is_ok());
    model
}

/// Sample `n` model sizes following the Pfam 27.0 size bands quoted in §IV
/// of the paper: 84.5% of families ≤ 400 columns, 14.4% in 401..=1000,
/// 1.1% above 1000 (capped at 2500). Within a band sizes are log-uniform.
pub fn pfam_size_sample(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f32 = rng.gen();
            let (lo, hi) = if u < 0.845 {
                (20.0f32, 400.0f32)
            } else if u < 0.845 + 0.144 {
                (401.0, 1000.0)
            } else {
                (1001.0, 2500.0)
            };
            let x = (lo.ln() + rng.gen::<f32>() * (hi.ln() - lo.ln())).exp();
            x.round() as usize
        })
        .collect()
}

fn jitter(rng: &mut StdRng, mean: f32, width: f32) -> f32 {
    mean + rng.gen_range(-width..=width)
}

fn normalize(v: &mut [f32; N_STANDARD]) {
    let s: f32 = v.iter().sum();
    for p in v.iter_mut() {
        *p /= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_model_is_valid() {
        for &m in &[1usize, 48, 400] {
            let model = synthetic_model(m, 42, &BuildParams::default());
            model.validate().unwrap();
            assert_eq!(model.len(), m);
        }
    }

    #[test]
    fn synthetic_model_is_deterministic() {
        let a = synthetic_model(64, 7, &BuildParams::default());
        let b = synthetic_model(64, 7, &BuildParams::default());
        assert_eq!(a.consensus, b.consensus);
        assert_eq!(a.nodes[10].mat, b.nodes[10].mat);
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic_model(64, 7, &BuildParams::default());
        let b = synthetic_model(64, 8, &BuildParams::default());
        assert_ne!(a.consensus, b.consensus);
    }

    #[test]
    fn gappy_params_raise_dd() {
        let g = synthetic_model(100, 1, &BuildParams::gappy());
        let c = synthetic_model(100, 1, &BuildParams::default());
        let mean_dd =
            |m: &CoreModel| m.nodes.iter().map(|n| n.t.dd as f64).sum::<f64>() / m.len() as f64;
        assert!(mean_dd(&g) > mean_dd(&c) + 0.3);
    }

    #[test]
    fn pfam_sample_matches_bands() {
        let sizes = pfam_size_sample(20_000, 3);
        let n = sizes.len() as f64;
        let small = sizes.iter().filter(|&&s| s <= 400).count() as f64 / n;
        let mid = sizes.iter().filter(|&&s| s > 400 && s <= 1000).count() as f64 / n;
        let large = sizes.iter().filter(|&&s| s > 1000).count() as f64 / n;
        assert!((small - 0.845).abs() < 0.02, "small band {small}");
        assert!((mid - 0.144).abs() < 0.02, "mid band {mid}");
        assert!((large - 0.011).abs() < 0.01, "large band {large}");
    }

    #[test]
    fn pfam_sample_deterministic() {
        assert_eq!(pfam_size_sample(100, 9), pfam_size_sample(100, 9));
    }
}
