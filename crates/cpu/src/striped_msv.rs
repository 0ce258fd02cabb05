//! Striped MSV filter — HMMER 3.0's `p7_MSVFilter` (Farrar layout).
//!
//! Model position `k0` (0-based) lives in vector `q = k0 % Q`, lane
//! `z = k0 / Q`, with `Q = ⌈M/lanes⌉`. The diagonal dependency `k0−1 → k0`
//! is a plain previous-vector read for `q > 0` and a one-lane shift of the
//! row's last vector for `q = 0` — no per-cell branches, which is exactly
//! why HMMER's CPU filter needs *zero* synchronization and why the paper's
//! GPU kernel must also be sync-free to compete (§III).
//!
//! This module holds the striped tables. The row loop is the interleaved
//! kernel in [`crate::batch`], written once over a lane-generic byte pipe;
//! scoring one sequence ([`StripedMsv::run_into`]) is that kernel at
//! width 1. The scalar and SSE2 backends walk a 16-lane layout, AVX2 a
//! re-striped 32-lane one (`Q = ⌈M/32⌉`), and an instance builds only the
//! layout its backend walks. Every backend's output is bit-identical to
//! [`msv_filter_scalar`](crate::quantized::msv_filter_scalar): the
//! recurrence is a pure dataflow of saturating adds and maxes, so the
//! per-cell values do not depend on which stripe a position lives in.

use crate::backend::Backend;
use crate::batch::BatchWorkspace;
use crate::quantized::MsvOutcome;
use crate::simd::ByteRow16;
use h3w_hmm::alphabet::{Residue, N_CODES};
use h3w_hmm::msvprofile::MsvProfile;

/// Lanes in the 128-bit byte pipeline (scalar and SSE2 backends).
pub const MSV_LANES: usize = 16;

/// Lanes in the 256-bit byte pipeline (AVX2 backend).
pub const MSV_LANES_AVX2: usize = 32;

/// `n` tables of `m` model positions each, striped table-major into
/// `L`-lane vectors: position `k0` of table `t` lands in vector
/// `t·Q + k0 % Q`, lane `k0 / Q`, with `Q = ⌈m/L⌉` (at least 1). Lanes
/// past `m` hold `pad`. Exact-size, so collecting allocates once.
pub(crate) fn striped<T: Copy, const L: usize>(
    m: usize,
    n: usize,
    pad: T,
    value: impl Fn(usize, usize) -> T,
) -> impl Iterator<Item = [T; L]> {
    let q = m.div_ceil(L).max(1);
    (0..n * q).map(move |v| {
        let (t, qi) = (v / q, v % q);
        core::array::from_fn(|z| match z * q + qi {
            k0 if k0 < m => value(t, k0),
            _ => pad,
        })
    })
}

/// Striped biased costs, code-major (`[code * q + qi]`), in the one layout
/// the instance's backend walks. Phantom positions (`k0 ≥ M`) cost 255,
/// pinning them to the floor.
#[derive(Debug, Clone)]
enum Costs {
    /// 16 lanes (scalar, SSE2), 16-byte-aligned rows.
    Lanes16(Vec<ByteRow16>),
    /// 32 lanes (AVX2), 32-byte-aligned rows.
    #[cfg(target_arch = "x86_64")]
    Lanes32(Vec<crate::x86::ByteRow32>),
}

/// A profile's MSV tables rearranged into the striped layout.
#[derive(Debug, Clone)]
pub struct StripedMsv {
    /// Model length.
    pub m: usize,
    /// Vectors per row of the walked layout: `⌈M/16⌉`, or `⌈M/32⌉` under
    /// AVX2.
    pub q: usize,
    backend: Backend,
    pub(crate) base: u8,
    pub(crate) bias: u8,
    pub(crate) overflow_at: u8,
    rbv: Costs,
}

impl StripedMsv {
    /// Re-stripe an [`MsvProfile`] for the auto-detected backend.
    pub fn new(om: &MsvProfile) -> StripedMsv {
        StripedMsv::with_backend(om, Backend::detect())
    }

    /// Re-stripe for a specific backend (downgrades to scalar if the
    /// requested backend cannot run on this CPU).
    pub fn with_backend(om: &MsvProfile, backend: Backend) -> StripedMsv {
        let backend = if backend.available() {
            backend
        } else {
            Backend::Scalar
        };
        let cost = |code: usize, k0| om.cost(code as u8, k0);
        let (lanes, rbv) = match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => (
                MSV_LANES_AVX2,
                Costs::Lanes32(
                    striped(om.m, N_CODES, 255, cost)
                        .map(crate::x86::ByteRow32)
                        .collect(),
                ),
            ),
            _ => (
                MSV_LANES,
                Costs::Lanes16(striped(om.m, N_CODES, 255, cost).map(ByteRow16).collect()),
            ),
        };
        StripedMsv {
            m: om.m,
            q: om.m.div_ceil(lanes).max(1),
            backend,
            base: om.base,
            bias: om.bias,
            overflow_at: om.overflow_limit(),
            rbv,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Lanes per vector of the walked layout.
    fn lanes(&self) -> usize {
        match self.rbv {
            Costs::Lanes16(_) => MSV_LANES,
            #[cfg(target_arch = "x86_64")]
            Costs::Lanes32(_) => MSV_LANES_AVX2,
        }
    }

    /// The striped cost table the backend walks, as raw bytes.
    pub(crate) fn table_ptr(&self) -> *const u8 {
        match &self.rbv {
            Costs::Lanes16(t) => t.as_ptr() as *const u8,
            #[cfg(target_arch = "x86_64")]
            Costs::Lanes32(t) => t.as_ptr() as *const u8,
        }
    }

    /// Stripe count of the table the backend walks ([`Self::q`]). Models
    /// may share a fused multi-profile pack only when this matches — the
    /// fused row loop walks one common `q`.
    pub fn active_q(&self) -> usize {
        self.q
    }

    /// Score one sequence: the batched kernel at width 1, with `dp` lent
    /// to it as the workspace buffer (resized as needed). Bit-identical to
    /// the scalar reference on every backend.
    pub fn run_into(
        &self,
        om: &MsvProfile,
        seq: &[Residue],
        dp: &mut Vec<ByteRow16>,
    ) -> MsvOutcome {
        let mut ws = BatchWorkspace {
            buf: std::mem::take(dp),
        };
        let mut out = [MsvOutcome::default()];
        self.run_batch_into(om, &[seq], &mut ws, &mut out);
        *dp = ws.buf;
        out[0]
    }

    /// Score one sequence with a fresh row buffer.
    pub fn run(&self, om: &MsvProfile, seq: &[Residue]) -> MsvOutcome {
        let mut dp = Vec::new();
        self.run_into(om, seq, &mut dp)
    }

    /// DP cells *computed* per residue row — `lanes · Q`, **including**
    /// striping phantoms. This is the work the hardware actually performs,
    /// the right denominator for calibration against measured kernel time.
    /// Never mix it with [`Self::real_cells_per_row`] (the `M` cells the
    /// sweep accounting reports).
    pub fn padded_cells_per_row(&self) -> usize {
        self.lanes() * self.q
    }

    /// DP cells *meaningful* per residue row — exactly `M`, excluding
    /// striping phantoms. This is the denominator the database sweeps
    /// report ([`crate::sweep::SweepTiming::real_cells`]).
    pub fn real_cells_per_row(&self) -> usize {
        self.m
    }

    /// Estimated bytes the kernel moves per residue row: one striped
    /// emission-table row read plus one DP-row read and write, at one
    /// byte per cell. Feeds the `bytes_moved` bandwidth counters in
    /// pipeline telemetry (an analytic lower bound — register traffic
    /// and cache refills are not modeled).
    pub fn bytes_per_row(&self) -> u64 {
        3 * self.padded_cells_per_row() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::msv_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::calibrate::random_seq;
    use h3w_hmm::profile::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn om(m: usize, seed: u64) -> MsvProfile {
        let bg = NullModel::new();
        let core = synthetic_model(m, seed, &BuildParams::default());
        MsvProfile::from_profile(&Profile::config(&core, &bg))
    }

    #[test]
    fn bit_exact_vs_scalar_over_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        // Sizes around both striping boundaries (16 and 32 lanes).
        for m in [1usize, 3, 15, 16, 17, 31, 32, 33, 48, 100, 257] {
            let om = om(m, m as u64);
            for backend in Backend::all_available() {
                let striped = StripedMsv::with_backend(&om, backend);
                for len in [1usize, 7, 50, 300] {
                    let seq = random_seq(&mut rng, len);
                    let a = msv_filter_scalar(&om, &seq);
                    let b = striped.run(&om, &seq);
                    assert_eq!(a, b, "backend={backend} m={m} len={len}");
                }
            }
        }
    }

    #[test]
    fn overflow_agrees_with_scalar() {
        // A strongly matching homolog against a long conserved model should
        // eventually overflow both implementations identically.
        let bg = NullModel::new();
        let core = synthetic_model(120, 3, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hom = Vec::new();
        for _ in 0..4 {
            hom.extend(h3w_seqdb::gen::sample_homolog(&mut rng, &core, 3));
        }
        let a = msv_filter_scalar(&om, &hom);
        for backend in Backend::all_available() {
            let b = StripedMsv::with_backend(&om, backend).run(&om, &hom);
            assert_eq!(a, b, "backend={backend}");
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let om = om(40, 9);
        for backend in Backend::all_available() {
            let striped = StripedMsv::with_backend(&om, backend);
            let mut rng = StdRng::seed_from_u64(10);
            let s1 = random_seq(&mut rng, 100);
            let s2 = random_seq(&mut rng, 60);
            let mut dp = Vec::new();
            let first = striped.run_into(&om, &s1, &mut dp);
            let second = striped.run_into(&om, &s2, &mut dp);
            assert_eq!(first, striped.run(&om, &s1), "backend={backend}");
            assert_eq!(second, striped.run(&om, &s2), "backend={backend}");
        }
    }

    #[test]
    fn stripe_geometry() {
        let om = om(33, 2);
        let striped = StripedMsv::with_backend(&om, Backend::Scalar);
        assert_eq!(striped.q, 3); // ceil(33/16)
        assert_eq!(striped.padded_cells_per_row(), 48);
        assert_eq!(striped.real_cells_per_row(), 33);
    }

    #[test]
    fn unavailable_backend_downgrades_to_scalar() {
        let om = om(20, 4);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(
            StripedMsv::with_backend(&om, Backend::Avx2).backend(),
            Backend::Scalar
        );
        #[cfg(target_arch = "x86_64")]
        {
            let s = StripedMsv::with_backend(&om, Backend::Sse2);
            assert_eq!(s.backend(), Backend::Sse2);
        }
    }
}
