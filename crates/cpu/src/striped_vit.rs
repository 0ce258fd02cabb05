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
//! **One row loop.** It is written once over a lane-generic word pipe and
//! monomorphized per backend: portable scalar (8 emulated lanes), SSE2
//! intrinsics over the same 8 × i16 layout, and AVX2 intrinsics over a
//! re-striped 16 × i16 layout (`Q = ⌈M/16⌉`). An instance builds only the
//! layout its backend walks; all three score bit-identically.

use crate::backend::Backend;
use crate::quantized::VitOutcome;
use crate::simd::{adds_i16, any_gt_i16, hmax_i16, max_i16, shift_i16, splat_i16, V8i16};
use crate::striped_msv::striped;
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

/// The 16-bit saturating word pipeline one backend exposes to the row
/// loop: just enough lane algebra for the Viterbi recurrence (the word
/// twin of the byte pipe under [`crate::batch`]).
///
/// # Safety
///
/// Implementations may compile to ISA extensions; callers must only invoke
/// them when [`Backend::available`] said so ([`StripedVit::run_into`]
/// guarantees this).
trait WordPipe {
    type V: Copy;
    /// One vector as the tables and DP rows store it: `LANES` words.
    type M: Copy;
    const LANES: usize;
    /// A striped table as its vectors.
    fn vectors(s: &[i16]) -> &[Self::M];
    /// The workspace's M, I and D rows, `q` vectors each, reset to −∞.
    /// The 8-lane pipes take them as they are: re-chunked rows hide their
    /// length `q` from LLVM, and the scalar loop then runs at half speed.
    fn rows(ws: &mut VitWorkspace, q: usize) -> [&mut [Self::M]; 3];
    unsafe fn splat(x: i16) -> Self::V;
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// Shift words up one lane, injecting `fill` into lane 0 (the striped
    /// diagonal move).
    unsafe fn shl1(a: Self::V, fill: i16) -> Self::V;
    unsafe fn hmax(a: Self::V) -> i16;
    /// Is any lane of `a` strictly greater than the same lane of `b`?
    unsafe fn any_gt(a: Self::V, b: Self::V) -> bool;
    /// Vector `qi` of a striped table or row. The scalar pipe checks the
    /// bound; the intrinsic pipes trust it.
    unsafe fn load(s: &[Self::M], qi: usize) -> Self::V;
    unsafe fn store(s: &mut [Self::M], qi: usize, v: Self::V);
}

/// Portable emulated 8-lane pipeline (the scalar backend).
struct ScalarWords;

impl WordPipe for ScalarWords {
    type V = V8i16;
    type M = V8i16;
    const LANES: usize = VIT_LANES;
    fn vectors(s: &[i16]) -> &[V8i16] {
        s.as_chunks().0
    }
    fn rows(ws: &mut VitWorkspace, q: usize) -> [&mut [V8i16]; 3] {
        ws.rows(q)
    }
    #[inline(always)]
    unsafe fn splat(x: i16) -> V8i16 {
        splat_i16(x)
    }
    #[inline(always)]
    unsafe fn adds(a: V8i16, b: V8i16) -> V8i16 {
        adds_i16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: V8i16, b: V8i16) -> V8i16 {
        max_i16(a, b)
    }
    #[inline(always)]
    unsafe fn shl1(a: V8i16, fill: i16) -> V8i16 {
        shift_i16(a, fill)
    }
    #[inline(always)]
    unsafe fn hmax(a: V8i16) -> i16 {
        hmax_i16(a)
    }
    #[inline(always)]
    unsafe fn any_gt(a: V8i16, b: V8i16) -> bool {
        any_gt_i16(a, b)
    }
    #[inline(always)]
    unsafe fn load(s: &[V8i16], qi: usize) -> V8i16 {
        s[qi]
    }
    #[inline(always)]
    unsafe fn store(s: &mut [V8i16], qi: usize, v: V8i16) {
        s[qi] = v
    }
}

/// Real 128-bit SSE2 pipeline over the same 8-lane layout.
#[cfg(target_arch = "x86_64")]
struct Sse2Words;

#[cfg(target_arch = "x86_64")]
impl WordPipe for Sse2Words {
    type V = core::arch::x86_64::__m128i;
    type M = V8i16;
    const LANES: usize = VIT_LANES;
    fn vectors(s: &[i16]) -> &[V8i16] {
        s.as_chunks().0
    }
    fn rows(ws: &mut VitWorkspace, q: usize) -> [&mut [V8i16]; 3] {
        ws.rows(q)
    }
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self::V {
        core::arch::x86_64::_mm_set1_epi16(x)
    }
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn shl1(a: Self::V, fill: i16) -> Self::V {
        crate::x86::shl1_i16_128(a, fill)
    }
    #[inline(always)]
    unsafe fn hmax(a: Self::V) -> i16 {
        crate::x86::hmax_epi16(a)
    }
    #[inline(always)]
    unsafe fn any_gt(a: Self::V, b: Self::V) -> bool {
        crate::x86::any_gt_epi16_128(a, b)
    }
    #[inline(always)]
    unsafe fn load(s: &[V8i16], qi: usize) -> Self::V {
        crate::x86::loadu128(s.as_ptr().add(qi))
    }
    #[inline(always)]
    unsafe fn store(s: &mut [V8i16], qi: usize, v: Self::V) {
        crate::x86::storeu128(s.as_mut_ptr().add(qi), v)
    }
}

/// 256-bit AVX2 pipeline over the re-striped 16-lane layout.
#[cfg(target_arch = "x86_64")]
struct Avx2Words;

#[cfg(target_arch = "x86_64")]
impl WordPipe for Avx2Words {
    type V = core::arch::x86_64::__m256i;
    type M = [i16; VIT_LANES_AVX2];
    const LANES: usize = VIT_LANES_AVX2;
    fn vectors(s: &[i16]) -> &[Self::M] {
        s.as_chunks().0
    }
    fn rows(ws: &mut VitWorkspace, q: usize) -> [&mut [Self::M]; 3] {
        // Twice as many 8-lane vectors, viewed as 16-lane ones.
        ws.rows(2 * q)
            .map(|row| row.as_flattened_mut().as_chunks_mut().0)
    }
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self::V {
        core::arch::x86_64::_mm256_set1_epi16(x)
    }
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn shl1(a: Self::V, fill: i16) -> Self::V {
        crate::x86::shl1_i16_256(a, fill)
    }
    #[inline(always)]
    unsafe fn hmax(a: Self::V) -> i16 {
        crate::x86::hmax_epi16_256(a)
    }
    #[inline(always)]
    unsafe fn any_gt(a: Self::V, b: Self::V) -> bool {
        crate::x86::any_gt_epi16_256(a, b)
    }
    #[inline(always)]
    unsafe fn load(s: &[Self::M], qi: usize) -> Self::V {
        crate::x86::loadu256(s.as_ptr().add(qi))
    }
    #[inline(always)]
    unsafe fn store(s: &mut [Self::M], qi: usize, v: Self::V) {
        crate::x86::storeu256(s.as_mut_ptr().add(qi), v)
    }
}

/// A profile's Viterbi tables rearranged into the striped layout.
#[derive(Debug, Clone)]
pub struct StripedVit {
    /// Model length.
    pub m: usize,
    /// Vectors per row of the walked layout: `⌈M/8⌉`, or `⌈M/16⌉` under
    /// AVX2.
    pub q: usize,
    backend: Backend,
    base: i16,
    /// Striped emissions, code-major: vector `code * q + qi`. Every table
    /// holds `q` vectors of the backend's lane count, phantoms −∞.
    rwv: Vec<i16>,
    tmm: Vec<i16>,
    tim: Vec<i16>,
    tdm: Vec<i16>,
    tmd: Vec<i16>,
    tdd: Vec<i16>,
    tmi: Vec<i16>,
    tii: Vec<i16>,
    bmk: Vec<i16>,
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
        match backend {
            Backend::Avx2 if backend.available() => Self::stripe::<VIT_LANES_AVX2>(om, backend),
            Backend::Sse2 if backend.available() => Self::stripe::<VIT_LANES>(om, backend),
            _ => Self::stripe::<VIT_LANES>(om, Backend::Scalar),
        }
    }

    /// Build the `L`-lane layout, and only that one.
    fn stripe<const L: usize>(om: &VitProfile, backend: Backend) -> StripedVit {
        let table = |n, value: &dyn Fn(usize, usize) -> i16| {
            striped::<i16, L>(om.m, n, W_NEG_INF, value)
                .collect::<Vec<_>>()
                .into_flattened()
        };
        let row = |t: &[i16]| table(1, &|_, k0| t[k0]);
        StripedVit {
            m: om.m,
            q: om.m.div_ceil(L).max(1),
            backend,
            base: om.base,
            rwv: table(N_CODES, &|code, k0| om.emis(code as u8, k0)),
            tmm: row(&om.tmm_in),
            tim: row(&om.tim_in),
            tdm: row(&om.tdm_in),
            tmd: row(&om.tmd_in),
            tdd: row(&om.tdd_in),
            tmi: row(&om.tmi_self),
            tii: row(&om.tii_self),
            bmk: row(&om.bmk_in),
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Lanes per vector of the walked layout.
    fn lanes(&self) -> usize {
        if self.backend == Backend::Avx2 {
            VIT_LANES_AVX2
        } else {
            VIT_LANES
        }
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
        // SAFETY: with_backend only selects Sse2/Avx2 when the CPU reports
        // the feature (SSE2 is the x86_64 baseline), and the tables and
        // rows hold `q` vectors of the selected pipe's width.
        unsafe {
            match self.backend {
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => vit_rows::<Sse2Words>(self, om, seq, ws),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => vit_rows_avx2(self, om, seq, ws),
                _ => vit_rows::<ScalarWords>(self, om, seq, ws),
            }
        }
    }

    /// Score one sequence with fresh buffers.
    pub fn run(&self, om: &VitProfile, seq: &[Residue]) -> (VitOutcome, LazyFStats) {
        let mut ws = VitWorkspace::default();
        self.run_into(om, seq, &mut ws)
    }

    /// DP cells *computed* per residue row (3 states × `lanes · Q`,
    /// **including** striping phantoms) — the calibration denominator.
    /// Not the same quantity as [`Self::real_cells_per_row`], which the
    /// sweep accounting reports.
    pub fn padded_cells_per_row(&self) -> usize {
        3 * self.lanes() * self.q
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
        let state_row = (self.lanes() * self.q) as u64; // cells per striped state row
        2 * state_row * (9 + 3 + 3)
    }
}

/// AVX2 monomorphization behind `#[target_feature]` so the row loop
/// compiles to 256-bit code (the `#[inline(always)]` generics fold into
/// this feature context).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vit_rows_avx2(
    t: &StripedVit,
    om: &VitProfile,
    seq: &[Residue],
    ws: &mut VitWorkspace,
) -> (VitOutcome, LazyFStats) {
    vit_rows::<Avx2Words>(t, om, seq, ws)
}

/// The Viterbi row loop, once for every backend: the main pass, the
/// `q = 0` M→D wrap, Lazy-F (pass 1, then carry passes), and the specials.
/// `t` must be striped `P::LANES` wide.
#[inline(always)]
unsafe fn vit_rows<P: WordPipe>(
    t: &StripedVit,
    om: &VitProfile,
    seq: &[Residue],
    ws: &mut VitWorkspace,
) -> (VitOutcome, LazyFStats) {
    let q = t.q;
    let ls = om.len_scores(seq.len());
    let [dpm, dpi, dpd] = P::rows(ws, q);
    let [bmk, tmm, tim, tdm, tmd, tdd, tmi, tii] = [
        &t.bmk, &t.tmm, &t.tim, &t.tdm, &t.tmd, &t.tdd, &t.tmi, &t.tii,
    ]
    .map(|v| P::vectors(v));
    let ninf = P::splat(W_NEG_INF);

    let mut stats = LazyFStats::default();
    let mut xn = t.base;
    let mut xj = W_NEG_INF;
    let mut xc = W_NEG_INF;
    let mut xb = wadd(xn, ls.move_w);

    for &x in seq {
        let row = &P::vectors(&t.rwv)[x as usize * q..][..q];
        let xbv = P::splat(xb);
        let mut xev = ninf;
        let mut mpv = P::shl1(P::load(dpm, q - 1), W_NEG_INF);
        let mut ipv = P::shl1(P::load(dpi, q - 1), W_NEG_INF);
        let mut dpv = P::shl1(P::load(dpd, q - 1), W_NEG_INF);
        let mut mcur_prev = ninf; // M of position k0-1, current row (intra-lane)
        for qi in 0..q {
            let old_m = P::load(dpm, qi);
            let old_i = P::load(dpi, qi);
            let old_d = P::load(dpd, qi);
            let mut sv = P::adds(xbv, P::load(bmk, qi));
            sv = P::max(sv, P::adds(mpv, P::load(tmm, qi)));
            sv = P::max(sv, P::adds(ipv, P::load(tim, qi)));
            sv = P::max(sv, P::adds(dpv, P::load(tdm, qi)));
            sv = P::adds(sv, P::load(row, qi));
            xev = P::max(xev, sv);
            let iv = P::max(
                P::adds(old_m, P::load(tmi, qi)),
                P::adds(old_i, P::load(tii, qi)),
            );
            P::store(dpi, qi, iv);
            // M→D seed; the q=0 wrap and all D→D arrive in Lazy-F.
            P::store(dpd, qi, P::adds(mcur_prev, P::load(tmd, qi)));
            P::store(dpm, qi, sv);
            mpv = old_m;
            ipv = old_i;
            dpv = old_d;
            mcur_prev = sv;
        }
        // Cross-lane M→D seed into q = 0.
        let wrap = P::adds(P::shl1(mcur_prev, W_NEG_INF), P::load(tmd, 0));
        let d0 = P::max(P::load(dpd, 0), wrap);
        P::store(dpd, 0, d0);

        // Lazy-F pass 1: close every in-lane D→D chain, branch-free.
        let mut carry = ninf;
        for qi in 0..q {
            carry = P::max(P::load(dpd, qi), P::adds(carry, P::load(tdd, qi)));
            P::store(dpd, qi, carry);
        }
        // Carry passes: one more lane boundary each, left at the first
        // `qi` where the carry improves no lane.
        let mut passes = 1;
        for _ in 1..P::LANES {
            passes += 1;
            let mut carry = P::shl1(P::load(dpd, q - 1), W_NEG_INF);
            let mut qi = 0;
            while qi < q {
                let cur = P::load(dpd, qi);
                let cand = P::adds(carry, P::load(tdd, qi));
                if !P::any_gt(cand, cur) {
                    break;
                }
                carry = P::max(cur, cand);
                P::store(dpd, qi, carry);
                qi += 1;
            }
            if qi < q {
                break;
            }
        }
        debug_assert!(!P::any_gt(
            P::adds(P::shl1(P::load(dpd, q - 1), W_NEG_INF), P::load(tdd, 0)),
            P::load(dpd, 0)
        ));
        stats.record(passes);

        let xe = P::hmax(xev);
        if xe == i16::MAX {
            let overflow = VitOutcome {
                xc: i16::MAX,
                score: f32::INFINITY,
            };
            return (overflow, stats);
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
