//! Striped MSV filter — HMMER 3.0's `p7_MSVFilter` (Farrar layout).
//!
//! Model position `k0` (0-based) lives in vector `q = k0 % Q`, lane
//! `z = k0 / Q`, with `Q = ⌈M/lanes⌉`. The diagonal dependency `k0−1 → k0`
//! is a plain previous-vector read for `q > 0` and a one-lane shift of the
//! row's last vector for `q = 0` — no per-cell branches, which is exactly
//! why HMMER's CPU filter needs *zero* synchronization and why the paper's
//! GPU kernel must also be sync-free to compete (§III).
//!
//! The inner row loop is backend-dispatched (see [`crate::backend`]):
//! a portable scalar reference, real SSE2 intrinsics over the same
//! 16-lane layout, and AVX2 intrinsics over a re-striped 32-lane layout
//! (`Q = ⌈M/32⌉`). Every backend's output is bit-identical to
//! [`msv_filter_scalar`](crate::quantized::msv_filter_scalar): the
//! recurrence is a pure dataflow of saturating adds and maxes, so the
//! per-cell values do not depend on which stripe a position lives in.

use crate::backend::Backend;
use crate::quantized::MsvOutcome;
use crate::simd::{adds_u8, hmax_u8, max_u8, shift_u8, splat_u8, subs_u8, ByteRow16};
use h3w_hmm::alphabet::{Residue, N_CODES};
use h3w_hmm::msvprofile::MsvProfile;

/// Lanes in the 128-bit byte pipeline (scalar and SSE2 backends).
pub const MSV_LANES: usize = 16;

/// Lanes in the 256-bit byte pipeline (AVX2 backend).
pub const MSV_LANES_AVX2: usize = 32;

/// AVX2 re-striped emission costs: `Q = ⌈M/32⌉` vectors of 32 bytes,
/// code-major, phantoms pinned to 255.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone)]
pub(crate) struct AvxMsv {
    /// Vectors per row: `⌈M/32⌉`.
    pub(crate) q: usize,
    /// `rbv[code * q + qi]`, 32-byte aligned rows.
    pub(crate) rbv: Vec<crate::x86::ByteRow32>,
}

/// Stripe an [`MsvProfile`]'s biased byte costs into the 16-lane layout
/// (`Q = ⌈M/16⌉`, code-major, phantoms pinned to 255).
fn stripe16(om: &MsvProfile) -> (usize, Vec<ByteRow16>) {
    let m = om.m;
    let q = m.div_ceil(MSV_LANES).max(1);
    let mut rbv = vec![ByteRow16([255u8; MSV_LANES]); N_CODES * q];
    for code in 0..N_CODES {
        for qi in 0..q {
            let vec = &mut rbv[code * q + qi].0;
            for (z, slot) in vec.iter_mut().enumerate() {
                let k0 = z * q + qi;
                if k0 < m {
                    *slot = om.cost(code as u8, k0);
                }
            }
        }
    }
    (q, rbv)
}

/// Stripe into the re-striped 32-lane AVX2 layout (`Q = ⌈M/32⌉`).
#[cfg(target_arch = "x86_64")]
fn stripe32(om: &MsvProfile) -> AvxMsv {
    let m = om.m;
    let q32 = m.div_ceil(MSV_LANES_AVX2).max(1);
    let mut rbv32 = vec![crate::x86::ByteRow32([255u8; MSV_LANES_AVX2]); N_CODES * q32];
    for code in 0..N_CODES {
        for qi in 0..q32 {
            let vec = &mut rbv32[code * q32 + qi].0;
            for (z, slot) in vec.iter_mut().enumerate() {
                let k0 = z * q32 + qi;
                if k0 < m {
                    *slot = om.cost(code as u8, k0);
                }
            }
        }
    }
    AvxMsv { q: q32, rbv: rbv32 }
}

/// A profile's MSV tables rearranged into the striped layout.
#[derive(Debug, Clone)]
pub struct StripedMsv {
    /// Model length.
    pub m: usize,
    /// Vectors per row in the 16-lane layout: `⌈M/16⌉`.
    pub q: usize,
    backend: Backend,
    pub(crate) base: u8,
    pub(crate) bias: u8,
    pub(crate) overflow_at: u8,
    /// Striped biased costs, code-major: `rbv[code * q + qi]`.
    /// Phantom positions (`k0 ≥ M`) cost 255, pinning them to the floor.
    pub(crate) rbv: Vec<ByteRow16>,
    #[cfg(target_arch = "x86_64")]
    pub(crate) avx: Option<AvxMsv>,
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
        let (q, rbv) = stripe16(om);
        #[cfg(target_arch = "x86_64")]
        let avx = (backend == Backend::Avx2).then(|| stripe32(om));
        StripedMsv {
            m: om.m,
            q,
            backend,
            base: om.base,
            bias: om.bias,
            overflow_at: om.overflow_limit(),
            rbv,
            #[cfg(target_arch = "x86_64")]
            avx,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Stripe count of the table the dispatched backend actually walks:
    /// `⌈M/32⌉` under AVX2's re-striped 32-lane layout, `⌈M/16⌉`
    /// otherwise. Models may share a fused multi-profile pack only when
    /// this matches — the fused row loop walks one common `q`.
    pub fn active_q(&self) -> usize {
        #[cfg(target_arch = "x86_64")]
        if let Some(t) = self.avx.as_ref() {
            return t.q;
        }
        self.q
    }

    /// Score one sequence, reusing `dp` as the row buffer (resized as
    /// needed). Bit-identical to the scalar reference on every backend.
    pub fn run_into(
        &self,
        om: &MsvProfile,
        seq: &[Residue],
        dp: &mut Vec<ByteRow16>,
    ) -> MsvOutcome {
        match self.backend {
            Backend::Scalar => self.run_scalar(om, seq, dp),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: with_backend only selects Sse2/Avx2 when the CPU
            // reports the feature (SSE2 is the x86_64 baseline).
            Backend::Sse2 => unsafe { self.run_sse2(om, seq, dp) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { self.run_avx2(om, seq, dp) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.run_scalar(om, seq, dp),
        }
    }

    /// Portable reference row loop (emulated 16-lane vectors).
    fn run_scalar(&self, om: &MsvProfile, seq: &[Residue], dp: &mut Vec<ByteRow16>) -> MsvOutcome {
        let q = self.q;
        let lc = om.len_costs(seq.len());
        dp.clear();
        dp.resize(q, ByteRow16::ZERO);

        let biasv = splat_u8(self.bias);
        let mut xj = 0u8;
        let mut xbv = splat_u8(self.base.saturating_sub(lc.tjbm));
        for &x in seq {
            let row = &self.rbv[x as usize * q..(x as usize + 1) * q];
            let mut xev = splat_u8(0);
            let mut mpv = shift_u8(dp[q - 1].0, 0);
            for (qi, rv) in row.iter().enumerate() {
                let sv = subs_u8(adds_u8(max_u8(mpv, xbv), biasv), rv.0);
                xev = max_u8(xev, sv);
                mpv = dp[qi].0;
                dp[qi] = ByteRow16(sv);
            }
            let xe = hmax_u8(xev);
            if xe >= self.overflow_at {
                return Self::overflow_outcome();
            }
            xj = xj.max(xe.saturating_sub(lc.tec));
            xbv = splat_u8(self.base.max(xj).saturating_sub(lc.tjbm));
        }
        MsvOutcome {
            xj,
            overflow: false,
            score: om.score_to_nats(xj, seq.len()),
        }
    }

    /// SSE2 row loop: identical 16-lane layout, real 128-bit intrinsics.
    #[cfg(target_arch = "x86_64")]
    unsafe fn run_sse2(
        &self,
        om: &MsvProfile,
        seq: &[Residue],
        dp: &mut Vec<ByteRow16>,
    ) -> MsvOutcome {
        use crate::x86::{hmax_epu8, loadu128, shl1_u8_128, storeu128};
        use core::arch::x86_64::*;

        let q = self.q;
        let lc = om.len_costs(seq.len());
        dp.clear();
        dp.resize(q, ByteRow16::ZERO);
        let dpb = dp.as_mut_ptr() as *mut u8;

        let biasv = _mm_set1_epi8(self.bias as i8);
        let mut xj = 0u8;
        let mut xbv = _mm_set1_epi8(self.base.saturating_sub(lc.tjbm) as i8);
        for &x in seq {
            let row = self.rbv.as_ptr().add(x as usize * q) as *const u8;
            let mut xev = _mm_setzero_si128();
            let mut mpv = shl1_u8_128(loadu128(dpb.add(16 * (q - 1))));
            for qi in 0..q {
                let rv = loadu128(row.add(16 * qi));
                let cur = loadu128(dpb.add(16 * qi));
                let sv = _mm_subs_epu8(_mm_adds_epu8(_mm_max_epu8(mpv, xbv), biasv), rv);
                xev = _mm_max_epu8(xev, sv);
                mpv = cur;
                storeu128(dpb.add(16 * qi), sv);
            }
            let xe = hmax_epu8(xev);
            if xe >= self.overflow_at {
                return Self::overflow_outcome();
            }
            xj = xj.max(xe.saturating_sub(lc.tec));
            xbv = _mm_set1_epi8(self.base.max(xj).saturating_sub(lc.tjbm) as i8);
        }
        MsvOutcome {
            xj,
            overflow: false,
            score: om.score_to_nats(xj, seq.len()),
        }
    }

    /// AVX2 row loop: re-striped 32-lane layout (`Q = ⌈M/32⌉`), 256-bit
    /// intrinsics. `dp` holds `2Q` 16-byte entries viewed as `Q` 32-byte
    /// vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(
        &self,
        om: &MsvProfile,
        seq: &[Residue],
        dp: &mut Vec<ByteRow16>,
    ) -> MsvOutcome {
        use crate::x86::{align32, loadu256, shl1_u8_256, storeu256};
        use core::arch::x86_64::*;

        let t = self
            .avx
            .as_ref()
            .expect("AVX2 tables built at construction");
        let q = t.q;
        let lc = om.len_costs(seq.len());
        dp.clear();
        // Two spare 16-byte entries let the working pointer snap to a
        // 32-byte boundary so row loads/stores never split a cache line.
        dp.resize(2 * q + 2, ByteRow16::ZERO);
        let dpb = align32(dp.as_mut_ptr() as *mut u8);

        let biasv = _mm256_set1_epi8(self.bias as i8);
        let basev = _mm256_set1_epi8(self.base as i8);
        let tecv = _mm256_set1_epi8(lc.tec as i8);
        let tjbmv = _mm256_set1_epi8(lc.tjbm as i8);
        let overv = _mm256_set1_epi8(self.overflow_at as i8);
        // The xJ/xB feedback stays entirely in the vector domain (every
        // lane carries the same value): a GPR round-trip per row
        // (hmax → scalar max → broadcast) serializes rows on a ~10-cycle
        // chain, which dominates once Q is this small.
        let mut xjv = _mm256_setzero_si256();
        let mut xbv = _mm256_subs_epu8(basev, tjbmv);
        for &x in seq {
            let row = t.rbv.as_ptr().add(x as usize * q) as *const u8;
            let mut xev = _mm256_setzero_si256();
            let mut mpv = shl1_u8_256(loadu256(dpb.add(32 * (q - 1))));
            for qi in 0..q {
                let rv = loadu256(row.add(32 * qi));
                let cur = loadu256(dpb.add(32 * qi));
                let sv = _mm256_subs_epu8(_mm256_adds_epu8(_mm256_max_epu8(mpv, xbv), biasv), rv);
                xev = _mm256_max_epu8(xev, sv);
                mpv = cur;
                storeu256(dpb.add(32 * qi), sv);
            }
            // Unsigned `xe >= overflow_at` as a predicted-not-taken branch
            // off the critical path.
            let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(xev, overv), xev);
            if _mm256_movemask_epi8(ge) != 0 {
                return Self::overflow_outcome();
            }
            // Broadcast-hmax of xev: swap 128-bit halves, then rotate
            // within each half — every lane ends up holding max(xev).
            let mut a = _mm256_max_epu8(xev, _mm256_permute2x128_si256::<0x01>(xev, xev));
            a = _mm256_max_epu8(a, _mm256_alignr_epi8::<8>(a, a));
            a = _mm256_max_epu8(a, _mm256_alignr_epi8::<4>(a, a));
            a = _mm256_max_epu8(a, _mm256_alignr_epi8::<2>(a, a));
            a = _mm256_max_epu8(a, _mm256_alignr_epi8::<1>(a, a));
            xjv = _mm256_max_epu8(xjv, _mm256_subs_epu8(a, tecv));
            xbv = _mm256_subs_epu8(_mm256_max_epu8(basev, xjv), tjbmv);
        }
        let xj = _mm256_extract_epi8::<0>(xjv) as u8;
        MsvOutcome {
            xj,
            overflow: false,
            score: om.score_to_nats(xj, seq.len()),
        }
    }

    fn overflow_outcome() -> MsvOutcome {
        MsvOutcome {
            xj: 255,
            overflow: true,
            score: MsvProfile::overflow_score(),
        }
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
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                MSV_LANES_AVX2
                    * self
                        .avx
                        .as_ref()
                        .map(|t| t.q)
                        .unwrap_or_else(|| self.m.div_ceil(MSV_LANES_AVX2).max(1))
            }
            _ => MSV_LANES * self.q,
        }
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
