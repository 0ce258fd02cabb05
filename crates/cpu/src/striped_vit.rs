//! Striped P7Viterbi filter with Lazy-F — HMMER 3.0's
//! `p7_ViterbiFilter` (Farrar 2007).
//!
//! Same striping as the MSV filter but with i16 lanes and three DP rows
//! (M/I/D). The D→D within-row chain (the sequential dependency the paper's
//! §III-B is about) is resolved lazily: the main pass seeds `D` with the
//! M→D path only, then
//!
//! 1. **pass 1**, branch-free, closes every in-lane chain:
//!    `D[qi] = max(D[qi], carry ⊕ tdd[qi]); carry = D[qi]` from
//!    `carry = −∞`, after which `D[qi+1] ≥ D[qi] ⊕ tdd[qi+1]` holds in
//!    every lane;
//! 2. **carry passes** hand each lane the closed `D[q−1]` of the lane
//!    below and are left at the first `qi` where `carry ⊕ tdd[qi]`
//!    improves no lane (Farrar's exit). That is sound because `⊕`
//!    (saturating add) is monotone and pass 1's inequality survives every
//!    update: a carry that fails at `qi` leaves `D[qi]` as it was, so it
//!    fails everywhere after. A pass that stops short did not touch
//!    `D[q−1]`, so the next carry would be the same one and the row is
//!    closed; a pass that runs through moves every chain one lane
//!    boundary further, and a chain crosses at most `LANES − 1` of them.
//!    That is the loop bound; no pass is ever cut off.
//!
//! The system `D[k] = max(seed[k], D[k−1] ⊕ tdd[k])` has one solution, so
//! the closed row equals the exact in-order propagation of
//! [`vit_filter_scalar`](crate::quantized::vit_filter_scalar) — bit-exactly
//! — at any lane count. On background rows the first carry pass leaves at
//! `qi = 0`: two walks per row, one of them a single vector.
//!
//! **No pre-test.** HMMER skips the resolution on rows where no D→D path
//! can beat `B→M` on the next row: with every `tdd, tdm ≤ 0`, a D→D-derived
//! `D[k]` is at most `Dmax + tdd[k]`, so `Dmax + max_k(tdd[k] + tdm[k+1] −
//! bmk[k+1]) ≤ xB` (in `i32`, with the row's new `xB`) proves the next
//! row's M unchanged. Uniform local entry makes `−bmk = ln(M(M+1)/2)`
//! thousands of words, and the test fired on no row of the calibration
//! sample from M = 100 up (7.9% of rows at M = 48) nor of Swissprot-shaped
//! survivors at M = 400, so it is not built (EXPERIMENTS.md E13).
//!
//! **No interleave.** The main loop has no serial chain and pass 1 a
//! 2-cycle one against a 1.5-cycle load/store floor; pass 1 is a tenth of
//! the kernel, so lockstep sequences could save ≈ 3%. The batched sweep
//! ([`crate::sweep`]) therefore scores a batch one sequence at a time.
//!
//! Like [`StripedMsv`](crate::striped_msv::StripedMsv), the row loop is
//! backend-dispatched: portable scalar reference (8 emulated lanes), SSE2
//! intrinsics over the same 8 × i16 layout, and AVX2 intrinsics over a
//! re-striped 16 × i16 layout (`Q = ⌈M/16⌉`); all score bit-identically.

use crate::backend::Backend;
use crate::quantized::VitOutcome;
use crate::simd::{adds_i16, any_gt_i16, hmax_i16, max_i16, shift_i16, splat_i16, V8i16};
use h3w_hmm::alphabet::{Residue, N_CODES};
use h3w_hmm::vitprofile::{wadd, VitProfile, W_NEG_INF};

/// Lanes in the 128-bit word pipeline (scalar and SSE2 backends).
pub const VIT_LANES: usize = 8;

/// Lanes in the 256-bit word pipeline (AVX2 backend).
pub const VIT_LANES_AVX2: usize = 16;

/// Lazy-F effort accounting — the measurable the paper's §III-B/§VI claims
/// are about (few rows take the D-D path; those that do converge fast).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyFStats {
    /// Rows (residues) processed.
    pub rows: u64,
    /// Walks over the D row that were started: pass 1 plus every carry
    /// pass, one that leaves at `qi = 0` included.
    pub total_passes: u64,
    /// Rows that started a carry pass.
    pub rows_extra: u64,
    /// Worst-case walks for any single row (≤ the lane count).
    pub max_passes: u32,
}

impl LazyFStats {
    /// Account one row that started `passes` walks over its D row.
    #[inline(always)]
    fn record(&mut self, passes: u32) {
        self.rows += 1;
        self.total_passes += passes as u64;
        self.rows_extra += (passes > 1) as u64;
        self.max_passes = self.max_passes.max(passes);
    }
}

/// Reusable row buffers for [`StripedVit::run_into`]: the M, I and D rows
/// in one allocation, back to back. Three separate `Vec`s land wherever
/// the allocator has room, and the row loop's speed moved with that (a
/// streamed sweep makes a workspace per chunk, in a heap full of freed
/// records: the same Viterbi stage ran at 20 ms or at 35 ms); one arena
/// fixes the rows' placement relative to each other. The AVX2 backend
/// reinterprets each row as half as many 16-lane vectors.
#[derive(Debug, Default)]
pub struct VitWorkspace {
    rows: Vec<V8i16>,
}

impl VitWorkspace {
    /// The three rows, `n` vectors each, reset to −∞.
    fn rows(&mut self, n: usize) -> [&mut [V8i16]; 3] {
        self.rows.clear();
        self.rows.resize(3 * n, [W_NEG_INF; VIT_LANES]);
        let (dpm, rest) = self.rows.split_at_mut(n);
        let (dpi, dpd) = rest.split_at_mut(n);
        [dpm, dpi, dpd]
    }
}

/// AVX2 re-striped tables: `Q = ⌈M/16⌉` vectors of 16 words, phantoms −∞.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone)]
struct AvxVit {
    /// Vectors per row: `⌈M/16⌉`.
    q: usize,
    /// Striped emissions, code-major: `rwv[code * q + qi]`.
    rwv: Vec<[i16; VIT_LANES_AVX2]>,
    tmm: Vec<[i16; VIT_LANES_AVX2]>,
    tim: Vec<[i16; VIT_LANES_AVX2]>,
    tdm: Vec<[i16; VIT_LANES_AVX2]>,
    tmd: Vec<[i16; VIT_LANES_AVX2]>,
    tdd: Vec<[i16; VIT_LANES_AVX2]>,
    tmi: Vec<[i16; VIT_LANES_AVX2]>,
    tii: Vec<[i16; VIT_LANES_AVX2]>,
    bmk: Vec<[i16; VIT_LANES_AVX2]>,
}

#[cfg(target_arch = "x86_64")]
impl AvxVit {
    fn build(om: &VitProfile) -> AvxVit {
        let m = om.m;
        let q = m.div_ceil(VIT_LANES_AVX2).max(1);
        let stripe = |table: &dyn Fn(usize) -> i16| -> Vec<[i16; VIT_LANES_AVX2]> {
            (0..q)
                .map(|qi| {
                    core::array::from_fn(|z| {
                        let k0 = z * q + qi;
                        if k0 < m {
                            table(k0)
                        } else {
                            W_NEG_INF
                        }
                    })
                })
                .collect()
        };
        let mut rwv = Vec::with_capacity(N_CODES * q);
        for code in 0..N_CODES as u8 {
            rwv.extend(stripe(&|k0| om.emis(code, k0)));
        }
        AvxVit {
            q,
            rwv,
            tmm: stripe(&|k0| om.tmm_in[k0]),
            tim: stripe(&|k0| om.tim_in[k0]),
            tdm: stripe(&|k0| om.tdm_in[k0]),
            tmd: stripe(&|k0| om.tmd_in[k0]),
            tdd: stripe(&|k0| om.tdd_in[k0]),
            tmi: stripe(&|k0| om.tmi_self[k0]),
            tii: stripe(&|k0| om.tii_self[k0]),
            bmk: stripe(&|k0| om.bmk_in[k0]),
        }
    }
}

/// A profile's Viterbi tables rearranged into the striped layout.
#[derive(Debug, Clone)]
pub struct StripedVit {
    /// Model length.
    pub m: usize,
    /// Vectors per row in the 8-lane layout: `⌈M/8⌉`.
    pub q: usize,
    backend: Backend,
    base: i16,
    /// Striped emissions, code-major: `rwv[code * q + qi]`.
    rwv: Vec<V8i16>,
    tmm: Vec<V8i16>,
    tim: Vec<V8i16>,
    tdm: Vec<V8i16>,
    tmd: Vec<V8i16>,
    tdd: Vec<V8i16>,
    tmi: Vec<V8i16>,
    tii: Vec<V8i16>,
    bmk: Vec<V8i16>,
    #[cfg(target_arch = "x86_64")]
    avx: Option<AvxVit>,
}

impl StripedVit {
    /// Re-stripe a [`VitProfile`] for the auto-detected backend. Phantom
    /// positions get −∞ everywhere.
    pub fn new(om: &VitProfile) -> StripedVit {
        StripedVit::with_backend(om, Backend::detect())
    }

    /// Re-stripe for a specific backend (downgrades to scalar if the
    /// requested backend cannot run on this CPU).
    pub fn with_backend(om: &VitProfile, backend: Backend) -> StripedVit {
        let backend = if backend.available() {
            backend
        } else {
            Backend::Scalar
        };
        let m = om.m;
        let q = m.div_ceil(VIT_LANES).max(1);
        let stripe = |table: &dyn Fn(usize) -> i16| -> Vec<V8i16> {
            (0..q)
                .map(|qi| {
                    core::array::from_fn(|z| {
                        let k0 = z * q + qi;
                        if k0 < m {
                            table(k0)
                        } else {
                            W_NEG_INF
                        }
                    })
                })
                .collect()
        };
        let mut rwv = Vec::with_capacity(N_CODES * q);
        for code in 0..N_CODES as u8 {
            rwv.extend(stripe(&|k0| om.emis(code, k0)));
        }
        StripedVit {
            m,
            q,
            backend,
            base: om.base,
            rwv,
            tmm: stripe(&|k0| om.tmm_in[k0]),
            tim: stripe(&|k0| om.tim_in[k0]),
            tdm: stripe(&|k0| om.tdm_in[k0]),
            tmd: stripe(&|k0| om.tmd_in[k0]),
            tdd: stripe(&|k0| om.tdd_in[k0]),
            tmi: stripe(&|k0| om.tmi_self[k0]),
            tii: stripe(&|k0| om.tii_self[k0]),
            bmk: stripe(&|k0| om.bmk_in[k0]),
            #[cfg(target_arch = "x86_64")]
            avx: (backend == Backend::Avx2).then(|| AvxVit::build(om)),
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Score one sequence, reusing `ws` buffers. Returns the outcome and
    /// Lazy-F effort statistics. Bit-identical to the scalar reference on
    /// every backend.
    pub fn run_into(
        &self,
        om: &VitProfile,
        seq: &[Residue],
        ws: &mut VitWorkspace,
    ) -> (VitOutcome, LazyFStats) {
        match self.backend {
            Backend::Scalar => self.run_scalar(om, seq, ws),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: with_backend only selects Sse2/Avx2 when the CPU
            // reports the feature (SSE2 is the x86_64 baseline).
            Backend::Sse2 => unsafe { self.run_sse2(om, seq, ws) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { self.run_avx2(om, seq, ws) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.run_scalar(om, seq, ws),
        }
    }

    /// Portable reference row loop (emulated 8-lane vectors).
    #[allow(clippy::needless_range_loop)]
    fn run_scalar(
        &self,
        om: &VitProfile,
        seq: &[Residue],
        ws: &mut VitWorkspace,
    ) -> (VitOutcome, LazyFStats) {
        let q = self.q;
        let ls = om.len_scores(seq.len());
        let ninf = splat_i16(W_NEG_INF);
        let [dpm, dpi, dpd] = ws.rows(q);

        let mut stats = LazyFStats::default();
        let mut xn = self.base;
        let mut xj = W_NEG_INF;
        let mut xc = W_NEG_INF;
        let mut xb = wadd(xn, ls.move_w);

        for &x in seq {
            let row = &self.rwv[x as usize * q..(x as usize + 1) * q];
            let xbv = splat_i16(xb);
            let mut xev = ninf;
            let mut mpv = shift_i16(dpm[q - 1], W_NEG_INF);
            let mut ipv = shift_i16(dpi[q - 1], W_NEG_INF);
            let mut dpv = shift_i16(dpd[q - 1], W_NEG_INF);
            let mut mcur_prev = ninf; // M of position k0-1, current row (intra-lane)
            for qi in 0..q {
                let old_m = dpm[qi];
                let old_i = dpi[qi];
                let old_d = dpd[qi];
                let mut sv = adds_i16(xbv, self.bmk[qi]);
                sv = max_i16(sv, adds_i16(mpv, self.tmm[qi]));
                sv = max_i16(sv, adds_i16(ipv, self.tim[qi]));
                sv = max_i16(sv, adds_i16(dpv, self.tdm[qi]));
                sv = adds_i16(sv, row[qi]);
                xev = max_i16(xev, sv);
                dpi[qi] = max_i16(adds_i16(old_m, self.tmi[qi]), adds_i16(old_i, self.tii[qi]));
                // M→D seed; the q=0 wrap and all D→D arrive in Lazy-F.
                dpd[qi] = adds_i16(mcur_prev, self.tmd[qi]);
                dpm[qi] = sv;
                mpv = old_m;
                ipv = old_i;
                dpv = old_d;
                mcur_prev = sv;
            }
            // Cross-lane M→D seed into q = 0.
            let wrap = adds_i16(shift_i16(mcur_prev, W_NEG_INF), self.tmd[0]);
            dpd[0] = max_i16(dpd[0], wrap);

            // Lazy-F pass 1: close every in-lane D→D chain, branch-free.
            let mut carry = ninf;
            for qi in 0..q {
                dpd[qi] = max_i16(dpd[qi], adds_i16(carry, self.tdd[qi]));
                carry = dpd[qi];
            }
            // Carry passes: one more lane boundary each, left at the
            // first `qi` where the carry improves no lane.
            let mut passes = 1;
            for _ in 1..VIT_LANES {
                passes += 1;
                let mut carry = shift_i16(dpd[q - 1], W_NEG_INF);
                let mut qi = 0;
                while qi < q {
                    let cand = adds_i16(carry, self.tdd[qi]);
                    if !any_gt_i16(cand, dpd[qi]) {
                        break;
                    }
                    dpd[qi] = max_i16(dpd[qi], cand);
                    carry = dpd[qi];
                    qi += 1;
                }
                if qi < q {
                    break;
                }
            }
            debug_assert!(!any_gt_i16(
                adds_i16(shift_i16(dpd[q - 1], W_NEG_INF), self.tdd[0]),
                dpd[0]
            ));
            stats.record(passes);

            let xe = hmax_i16(xev);
            if xe == i16::MAX {
                return (Self::overflow_outcome(), stats);
            }
            xj = wadd(xj, ls.loop_w).max(wadd(xe, ls.e_to_j));
            xc = wadd(xc, ls.loop_w).max(wadd(xe, ls.e_to_c));
            xn = wadd(xn, ls.loop_w);
            xb = wadd(xn.max(xj), ls.move_w);
        }
        (
            VitOutcome {
                xc,
                score: om.score_to_nats(xc, seq.len()),
            },
            stats,
        )
    }

    /// SSE2 row loop: identical 8-lane layout, real 128-bit intrinsics.
    #[cfg(target_arch = "x86_64")]
    unsafe fn run_sse2(
        &self,
        om: &VitProfile,
        seq: &[Residue],
        ws: &mut VitWorkspace,
    ) -> (VitOutcome, LazyFStats) {
        use crate::x86::{any_gt_epi16_128, hmax_epi16, loadu128, shl1_i16_128, storeu128};
        use core::arch::x86_64::*;

        let q = self.q;
        let ls = om.len_scores(seq.len());
        let [dpm, dpi, dpd] = ws.rows(q).map(|row| row.as_mut_ptr() as *mut i16);
        let ninf = _mm_set1_epi16(W_NEG_INF);

        let mut stats = LazyFStats::default();
        let mut xn = self.base;
        let mut xj = W_NEG_INF;
        let mut xc = W_NEG_INF;
        let mut xb = wadd(xn, ls.move_w);

        for &x in seq {
            let row = self.rwv.as_ptr().add(x as usize * q) as *const i16;
            let xbv = _mm_set1_epi16(xb);
            let mut xev = ninf;
            let mut mpv = shl1_i16_128(loadu128(dpm.add(8 * (q - 1))), W_NEG_INF);
            let mut ipv = shl1_i16_128(loadu128(dpi.add(8 * (q - 1))), W_NEG_INF);
            let mut dpv = shl1_i16_128(loadu128(dpd.add(8 * (q - 1))), W_NEG_INF);
            let mut mcur_prev = ninf;
            for qi in 0..q {
                let old_m = loadu128(dpm.add(8 * qi));
                let old_i = loadu128(dpi.add(8 * qi));
                let old_d = loadu128(dpd.add(8 * qi));
                let mut sv = _mm_adds_epi16(xbv, loadu128(self.bmk.as_ptr().add(qi)));
                sv = _mm_max_epi16(sv, _mm_adds_epi16(mpv, loadu128(self.tmm.as_ptr().add(qi))));
                sv = _mm_max_epi16(sv, _mm_adds_epi16(ipv, loadu128(self.tim.as_ptr().add(qi))));
                sv = _mm_max_epi16(sv, _mm_adds_epi16(dpv, loadu128(self.tdm.as_ptr().add(qi))));
                sv = _mm_adds_epi16(sv, loadu128(row.add(8 * qi)));
                xev = _mm_max_epi16(xev, sv);
                let iv = _mm_max_epi16(
                    _mm_adds_epi16(old_m, loadu128(self.tmi.as_ptr().add(qi))),
                    _mm_adds_epi16(old_i, loadu128(self.tii.as_ptr().add(qi))),
                );
                storeu128(dpi.add(8 * qi), iv);
                storeu128(
                    dpd.add(8 * qi),
                    _mm_adds_epi16(mcur_prev, loadu128(self.tmd.as_ptr().add(qi))),
                );
                storeu128(dpm.add(8 * qi), sv);
                mpv = old_m;
                ipv = old_i;
                dpv = old_d;
                mcur_prev = sv;
            }
            let wrap = _mm_adds_epi16(
                shl1_i16_128(mcur_prev, W_NEG_INF),
                loadu128(self.tmd.as_ptr()),
            );
            storeu128(dpd, _mm_max_epi16(loadu128(dpd), wrap));

            let tdd = self.tdd.as_ptr();
            let mut carry = ninf;
            for qi in 0..q {
                let cand = _mm_adds_epi16(carry, loadu128(tdd.add(qi)));
                carry = _mm_max_epi16(loadu128(dpd.add(8 * qi)), cand);
                storeu128(dpd.add(8 * qi), carry);
            }
            let mut passes = 1;
            for _ in 1..VIT_LANES {
                passes += 1;
                let mut carry = shl1_i16_128(loadu128(dpd.add(8 * (q - 1))), W_NEG_INF);
                let mut qi = 0;
                while qi < q {
                    let cur = loadu128(dpd.add(8 * qi));
                    let cand = _mm_adds_epi16(carry, loadu128(tdd.add(qi)));
                    if !any_gt_epi16_128(cand, cur) {
                        break;
                    }
                    carry = _mm_max_epi16(cur, cand);
                    storeu128(dpd.add(8 * qi), carry);
                    qi += 1;
                }
                if qi < q {
                    break;
                }
            }
            debug_assert!(!any_gt_epi16_128(
                _mm_adds_epi16(
                    shl1_i16_128(loadu128(dpd.add(8 * (q - 1))), W_NEG_INF),
                    loadu128(tdd)
                ),
                loadu128(dpd)
            ));
            stats.record(passes);

            let xe = hmax_epi16(xev);
            if xe == i16::MAX {
                return (Self::overflow_outcome(), stats);
            }
            xj = wadd(xj, ls.loop_w).max(wadd(xe, ls.e_to_j));
            xc = wadd(xc, ls.loop_w).max(wadd(xe, ls.e_to_c));
            xn = wadd(xn, ls.loop_w);
            xb = wadd(xn.max(xj), ls.move_w);
        }
        (
            VitOutcome {
                xc,
                score: om.score_to_nats(xc, seq.len()),
            },
            stats,
        )
    }

    /// AVX2 row loop: re-striped 16-lane layout (`Q = ⌈M/16⌉`), 256-bit
    /// intrinsics. Workspace rows hold `2Q` 8-word entries viewed as `Q`
    /// 16-word vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(
        &self,
        om: &VitProfile,
        seq: &[Residue],
        ws: &mut VitWorkspace,
    ) -> (VitOutcome, LazyFStats) {
        use crate::x86::{any_gt_epi16_256, hmax_epi16_256, loadu256, shl1_i16_256, storeu256};
        use core::arch::x86_64::*;

        let t = self
            .avx
            .as_ref()
            .expect("AVX2 tables built at construction");
        let q = t.q;
        let ls = om.len_scores(seq.len());
        let [dpm, dpi, dpd] = ws.rows(2 * q).map(|row| row.as_mut_ptr() as *mut i16);
        let ninf = _mm256_set1_epi16(W_NEG_INF);

        let mut stats = LazyFStats::default();
        let mut xn = self.base;
        let mut xj = W_NEG_INF;
        let mut xc = W_NEG_INF;
        let mut xb = wadd(xn, ls.move_w);

        for &x in seq {
            let row = t.rwv.as_ptr().add(x as usize * q) as *const i16;
            let xbv = _mm256_set1_epi16(xb);
            let mut xev = ninf;
            let mut mpv = shl1_i16_256(loadu256(dpm.add(16 * (q - 1))), W_NEG_INF);
            let mut ipv = shl1_i16_256(loadu256(dpi.add(16 * (q - 1))), W_NEG_INF);
            let mut dpv = shl1_i16_256(loadu256(dpd.add(16 * (q - 1))), W_NEG_INF);
            let mut mcur_prev = ninf;
            for qi in 0..q {
                let old_m = loadu256(dpm.add(16 * qi));
                let old_i = loadu256(dpi.add(16 * qi));
                let old_d = loadu256(dpd.add(16 * qi));
                let mut sv = _mm256_adds_epi16(xbv, loadu256(t.bmk.as_ptr().add(qi)));
                sv = _mm256_max_epi16(sv, _mm256_adds_epi16(mpv, loadu256(t.tmm.as_ptr().add(qi))));
                sv = _mm256_max_epi16(sv, _mm256_adds_epi16(ipv, loadu256(t.tim.as_ptr().add(qi))));
                sv = _mm256_max_epi16(sv, _mm256_adds_epi16(dpv, loadu256(t.tdm.as_ptr().add(qi))));
                sv = _mm256_adds_epi16(sv, loadu256(row.add(16 * qi)));
                xev = _mm256_max_epi16(xev, sv);
                let iv = _mm256_max_epi16(
                    _mm256_adds_epi16(old_m, loadu256(t.tmi.as_ptr().add(qi))),
                    _mm256_adds_epi16(old_i, loadu256(t.tii.as_ptr().add(qi))),
                );
                storeu256(dpi.add(16 * qi), iv);
                storeu256(
                    dpd.add(16 * qi),
                    _mm256_adds_epi16(mcur_prev, loadu256(t.tmd.as_ptr().add(qi))),
                );
                storeu256(dpm.add(16 * qi), sv);
                mpv = old_m;
                ipv = old_i;
                dpv = old_d;
                mcur_prev = sv;
            }
            let wrap =
                _mm256_adds_epi16(shl1_i16_256(mcur_prev, W_NEG_INF), loadu256(t.tmd.as_ptr()));
            storeu256(dpd, _mm256_max_epi16(loadu256(dpd), wrap));

            let tdd = t.tdd.as_ptr();
            let mut carry = ninf;
            for qi in 0..q {
                let cand = _mm256_adds_epi16(carry, loadu256(tdd.add(qi)));
                carry = _mm256_max_epi16(loadu256(dpd.add(16 * qi)), cand);
                storeu256(dpd.add(16 * qi), carry);
            }
            let mut passes = 1;
            for _ in 1..VIT_LANES_AVX2 {
                passes += 1;
                let mut carry = shl1_i16_256(loadu256(dpd.add(16 * (q - 1))), W_NEG_INF);
                let mut qi = 0;
                while qi < q {
                    let cur = loadu256(dpd.add(16 * qi));
                    let cand = _mm256_adds_epi16(carry, loadu256(tdd.add(qi)));
                    if !any_gt_epi16_256(cand, cur) {
                        break;
                    }
                    carry = _mm256_max_epi16(cur, cand);
                    storeu256(dpd.add(16 * qi), carry);
                    qi += 1;
                }
                if qi < q {
                    break;
                }
            }
            debug_assert!(!any_gt_epi16_256(
                _mm256_adds_epi16(
                    shl1_i16_256(loadu256(dpd.add(16 * (q - 1))), W_NEG_INF),
                    loadu256(tdd)
                ),
                loadu256(dpd)
            ));
            stats.record(passes);

            let xe = hmax_epi16_256(xev);
            if xe == i16::MAX {
                return (Self::overflow_outcome(), stats);
            }
            xj = wadd(xj, ls.loop_w).max(wadd(xe, ls.e_to_j));
            xc = wadd(xc, ls.loop_w).max(wadd(xe, ls.e_to_c));
            xn = wadd(xn, ls.loop_w);
            xb = wadd(xn.max(xj), ls.move_w);
        }
        (
            VitOutcome {
                xc,
                score: om.score_to_nats(xc, seq.len()),
            },
            stats,
        )
    }

    fn overflow_outcome() -> VitOutcome {
        VitOutcome {
            xc: i16::MAX,
            score: f32::INFINITY,
        }
    }

    /// Score one sequence with fresh buffers.
    pub fn run(&self, om: &VitProfile, seq: &[Residue]) -> (VitOutcome, LazyFStats) {
        let mut ws = VitWorkspace::default();
        self.run_into(om, seq, &mut ws)
    }

    /// DP cells *computed* per residue row (3 states × 8·Q, **including**
    /// striping phantoms) — the calibration denominator. Not the same
    /// quantity as [`Self::real_cells_per_row`], which the sweep
    /// accounting reports.
    pub fn padded_cells_per_row(&self) -> usize {
        3 * VIT_LANES * self.q
    }

    /// DP cells *meaningful* per residue row (3 states × `M`, excluding
    /// striping phantoms) — the denominator behind
    /// [`crate::sweep::SweepTiming::real_cells`].
    pub fn real_cells_per_row(&self) -> usize {
        3 * self.m
    }

    /// Estimated bytes the kernel moves per residue row: nine striped
    /// table rows (emissions + eight transitions) plus the 3-state DP
    /// row read and written, at two bytes per i16 cell. Feeds the
    /// `bytes_moved` bandwidth counters in pipeline telemetry (an
    /// analytic lower bound).
    pub fn bytes_per_row(&self) -> u64 {
        let state_row = (VIT_LANES * self.q) as u64; // cells per striped state row
        2 * state_row * (9 + 3 + 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantized::vit_filter_scalar;
    use h3w_hmm::background::NullModel;
    use h3w_hmm::build::{synthetic_model, BuildParams};
    use h3w_hmm::calibrate::random_seq;
    use h3w_hmm::profile::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn om(m: usize, seed: u64, params: &BuildParams) -> VitProfile {
        let bg = NullModel::new();
        let core = synthetic_model(m, seed, params);
        VitProfile::from_profile(&Profile::config(&core, &bg))
    }

    #[test]
    fn bit_exact_vs_scalar_over_sizes() {
        let mut rng = StdRng::seed_from_u64(21);
        // Sizes around both striping boundaries (8 and 16 lanes).
        for m in [1usize, 5, 7, 8, 9, 15, 16, 17, 33, 64, 130] {
            let om = om(m, m as u64 + 40, &BuildParams::default());
            for backend in Backend::all_available() {
                let striped = StripedVit::with_backend(&om, backend);
                for len in [1usize, 9, 60, 250] {
                    let seq = random_seq(&mut rng, len);
                    let a = vit_filter_scalar(&om, &seq);
                    let (b, _) = striped.run(&om, &seq);
                    assert_eq!(a, b, "backend={backend} m={m} len={len}");
                }
            }
        }
    }

    #[test]
    fn bit_exact_on_gappy_models() {
        // High D→D probability exercises deep Lazy-F chains.
        let mut rng = StdRng::seed_from_u64(22);
        for m in [24usize, 60, 100] {
            let om = om(m, 7, &BuildParams::gappy());
            for backend in Backend::all_available() {
                let striped = StripedVit::with_backend(&om, backend);
                for len in [30usize, 120] {
                    let seq = random_seq(&mut rng, len);
                    let a = vit_filter_scalar(&om, &seq);
                    let (b, stats) = striped.run(&om, &seq);
                    assert_eq!(a, b, "backend={backend} m={m} len={len}");
                    assert!(stats.max_passes <= 2 * VIT_LANES_AVX2 as u32 + 3);
                }
            }
        }
    }

    #[test]
    fn bit_exact_on_homologs() {
        let bg = NullModel::new();
        let core = synthetic_model(70, 9, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = VitProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(23);
        let mut seqs = Vec::new();
        for _ in 0..5 {
            seqs.push(h3w_seqdb::gen::sample_homolog(&mut rng, &core, 12));
        }
        for backend in Backend::all_available() {
            let striped = StripedVit::with_backend(&om, backend);
            for hom in &seqs {
                let a = vit_filter_scalar(&om, hom);
                let (b, _) = striped.run(&om, hom);
                assert_eq!(a, b, "backend={backend}");
            }
        }
    }

    #[test]
    fn lazyf_effort_rises_with_gappiness() {
        let mut rng = StdRng::seed_from_u64(24);
        let seq = random_seq(&mut rng, 300);
        let cons = om(64, 3, &BuildParams::default());
        let gappy = om(64, 3, &BuildParams::gappy());
        let (_, s_cons) = StripedVit::new(&cons).run(&cons, &seq);
        let (_, s_gappy) = StripedVit::new(&gappy).run(&gappy, &seq);
        assert!(
            s_gappy.total_passes >= s_cons.total_passes,
            "gappy {} < conserved {}",
            s_gappy.total_passes,
            s_cons.total_passes
        );
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let om = om(40, 11, &BuildParams::default());
        for backend in Backend::all_available() {
            let striped = StripedVit::with_backend(&om, backend);
            let mut rng = StdRng::seed_from_u64(25);
            let s1 = random_seq(&mut rng, 80);
            let s2 = random_seq(&mut rng, 33);
            let mut ws = VitWorkspace::default();
            let (a1, _) = striped.run_into(&om, &s1, &mut ws);
            let (a2, _) = striped.run_into(&om, &s2, &mut ws);
            assert_eq!(a1, striped.run(&om, &s1).0, "backend={backend}");
            assert_eq!(a2, striped.run(&om, &s2).0, "backend={backend}");
        }
    }

    #[test]
    fn stripe_geometry() {
        let om = om(17, 2, &BuildParams::default());
        let striped = StripedVit::with_backend(&om, Backend::Scalar);
        assert_eq!(striped.q, 3); // ceil(17/8)
        assert_eq!(striped.padded_cells_per_row(), 72);
        assert_eq!(striped.real_cells_per_row(), 51);
    }

    #[test]
    fn workspace_shared_across_backends() {
        // One workspace must be reusable by instances on different
        // backends (the AVX2 layout resizes it transparently).
        let om = om(50, 13, &BuildParams::default());
        let mut rng = StdRng::seed_from_u64(26);
        let seq = random_seq(&mut rng, 90);
        let expect = vit_filter_scalar(&om, &seq);
        let mut ws = VitWorkspace::default();
        for backend in Backend::all_available() {
            let striped = StripedVit::with_backend(&om, backend);
            let (got, _) = striped.run_into(&om, &seq, &mut ws);
            assert_eq!(expect, got, "backend={backend}");
        }
    }
}
