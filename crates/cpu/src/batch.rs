//! The MSV filter kernel: batched, multi-sequence, **interleaved**, and
//! the only MSV row loop there is ([`StripedMsv::run_into`] is this
//! kernel at width 1).
//!
//! One sequence alone is latency-bound, not width-bound: with `M = 400` a
//! row is only `Q = 13–25` vector ops, all serialized behind the previous
//! row's `xE → hmax → xJ/xB` broadcast chain, so a wider ISA barely helps
//! (at width 1 and M = 400, AVX2 runs only ~1.5× SSE2).
//! The paper's GPU mapping avoids exactly this by *inter-task* parallelism
//! — every warp owns an independent sequence (§III.E). This module is the
//! CPU transliteration of that idea: one fused inner loop scores `S`
//! sequences at once, round-robining their row updates so the `S`
//! independent dependency chains hide each other's latency
//! (warp ↦ sequence becomes batch-slot ↦ sequence).
//!
//! Per-sequence state (`dp` row, `xJ`/`xB` vectors, overflow flag) lives in
//! a small struct-of-arrays workspace. Sequences that finish early or
//! overflow drop out of the rotation (the fused loop re-dispatches at the
//! smaller width), so a length-skewed batch degrades gracefully instead of
//! padding. Every per-sequence outcome is **bit-identical** at every
//! width, and to the scalar spec
//! [`msv_filter_scalar`](crate::quantized::msv_filter_scalar): the
//! interleaving never mixes data between slots, it only reorders
//! independent work in time.
//!
//! Feed batches through the length-binned scheduler in [`crate::sweep`] so
//! batch members stay in lockstep for as long as possible.

use crate::backend::Backend;
use crate::quantized::MsvOutcome;
use crate::simd::{
    adds_u8, hmax_u8, max_u8, min_u8, shift_u8, splat_u8, subs_u8, ByteRow16, V16u8,
};
use crate::striped_msv::StripedMsv;
use h3w_hmm::alphabet::Residue;
use h3w_hmm::msvprofile::MsvProfile;

/// Largest supported batch width (slots per fused loop). Four u8 chains
/// cover the per-row feedback latency on every core we have measured;
/// eight was tried and loses 10–25% across the board — the interleaved
/// row loop keeps ~6 vectors per chain hot, and past four chains that
/// working set spills out of a 16-register vector file and the spill
/// traffic serializes exactly the work the interleave meant to overlap.
pub const MAX_BATCH: usize = 4;

/// Reusable scratch for one batch: all `S` DP rows back to back, on
/// 4 KiB pages no other allocation shares.
///
/// Two workers' workspaces can land a few hundred bytes apart in one
/// malloc arena. Then one worker's batches ran 3–7× slower, and the
/// two-thread scalar MSV sweep ran no faster than one thread. Which
/// placement a run gets changes whenever anything allocated earlier
/// changes size. Rows alone on their pages were fast at every page
/// offset tried; a 64-byte guard on either side was not enough.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    pub(crate) buf: Vec<ByteRow16>,
}

const PAGE: usize = 4096;

impl BatchWorkspace {
    /// A zeroed, page-aligned scratch region of at least `bytes` bytes
    /// whose pages hold nothing else.
    fn zeroed(&mut self, bytes: usize) -> *mut u8 {
        // One spare page lets the working pointer snap to a page
        // boundary with whole pages of the region still inside `buf`.
        let entries = (bytes.next_multiple_of(PAGE) + PAGE) / 16;
        if self.buf.len() < entries {
            self.buf.resize(entries, ByteRow16::ZERO);
        }
        let p = self.buf.as_mut_ptr() as *mut u8;
        // SAFETY: the spare page covers the alignment bump, so
        // `bytes` bytes from the aligned pointer stay inside `buf`.
        unsafe {
            let dp = p.add(p.align_offset(PAGE));
            std::ptr::write_bytes(dp, 0, bytes);
            dp
        }
    }
}

/// The 8-bit saturating byte pipeline one backend exposes to the fused
/// kernel: just enough lane algebra for the MSV recurrence.
///
/// # Safety
///
/// Implementations may compile to ISA extensions; callers must only invoke
/// them when [`Backend::available`] said so (the `run_batch_into` entry
/// points guarantee this). Pointers passed to `load`/`store` must be valid
/// for `LANES` bytes.
trait BytePipe {
    type V: Copy;
    const LANES: usize;
    unsafe fn zero() -> Self::V;
    unsafe fn splat(x: u8) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
    /// Shift bytes up one lane, injecting 0 into lane 0 (the striped
    /// diagonal move).
    unsafe fn shl1(a: Self::V) -> Self::V;
    /// Every lane of the result holds `hmax(a)` — the vector-domain
    /// row reduction, so the `xJ/xB` feedback never round-trips through a
    /// general-purpose register.
    unsafe fn bcast_hmax(a: Self::V) -> Self::V;
    unsafe fn extract0(a: Self::V) -> u8;
    /// Is any lane of `a` `≥` the (splatted) `limit`?
    unsafe fn any_ge(a: Self::V, limit: Self::V) -> bool;
    unsafe fn or(a: Self::V, b: Self::V) -> Self::V;
    /// Is any byte of `a` nonzero?
    unsafe fn any_set(a: Self::V) -> bool;
    unsafe fn load(p: *const u8) -> Self::V;
    unsafe fn store(p: *mut u8, v: Self::V);
}

/// Portable emulated 16-lane pipeline (the scalar backend).
struct ScalarPipe;

impl BytePipe for ScalarPipe {
    type V = V16u8;
    const LANES: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> V16u8 {
        splat_u8(0)
    }
    #[inline(always)]
    unsafe fn splat(x: u8) -> V16u8 {
        splat_u8(x)
    }
    #[inline(always)]
    unsafe fn max(a: V16u8, b: V16u8) -> V16u8 {
        max_u8(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: V16u8, b: V16u8) -> V16u8 {
        min_u8(a, b)
    }
    #[inline(always)]
    unsafe fn adds(a: V16u8, b: V16u8) -> V16u8 {
        adds_u8(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: V16u8, b: V16u8) -> V16u8 {
        subs_u8(a, b)
    }
    #[inline(always)]
    unsafe fn shl1(a: V16u8) -> V16u8 {
        shift_u8(a, 0)
    }
    #[inline(always)]
    unsafe fn bcast_hmax(a: V16u8) -> V16u8 {
        splat_u8(hmax_u8(a))
    }
    #[inline(always)]
    unsafe fn extract0(a: V16u8) -> u8 {
        a[0]
    }
    #[inline(always)]
    unsafe fn any_ge(a: V16u8, limit: V16u8) -> bool {
        hmax_u8(a) >= limit[0]
    }
    #[inline(always)]
    unsafe fn or(a: V16u8, b: V16u8) -> V16u8 {
        let mut r = [0u8; 16];
        for i in 0..16 {
            r[i] = a[i] | b[i];
        }
        r
    }
    #[inline(always)]
    unsafe fn any_set(a: V16u8) -> bool {
        a.iter().any(|&x| x != 0)
    }
    #[inline(always)]
    unsafe fn load(p: *const u8) -> V16u8 {
        core::ptr::read_unaligned(p as *const V16u8)
    }
    #[inline(always)]
    unsafe fn store(p: *mut u8, v: V16u8) {
        core::ptr::write_unaligned(p as *mut V16u8, v)
    }
}

/// Real 128-bit SSE2 pipeline over the same 16-lane layout.
#[cfg(target_arch = "x86_64")]
struct Sse2Pipe;

#[cfg(target_arch = "x86_64")]
impl BytePipe for Sse2Pipe {
    type V = core::arch::x86_64::__m128i;
    const LANES: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> Self::V {
        core::arch::x86_64::_mm_setzero_si128()
    }
    #[inline(always)]
    unsafe fn splat(x: u8) -> Self::V {
        core::arch::x86_64::_mm_set1_epi8(x as i8)
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_max_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_min_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_adds_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_subs_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn shl1(a: Self::V) -> Self::V {
        crate::x86::shl1_u8_128(a)
    }
    #[inline(always)]
    unsafe fn bcast_hmax(a: Self::V) -> Self::V {
        use core::arch::x86_64::*;
        // Funnel the max into lane 0 (shifted-in zeros never win an
        // unsigned max), then broadcast it with SSE2-only shuffles.
        let a = _mm_max_epu8(a, _mm_srli_si128::<8>(a));
        let a = _mm_max_epu8(a, _mm_srli_si128::<4>(a));
        let a = _mm_max_epu8(a, _mm_srli_si128::<2>(a));
        let a = _mm_max_epu8(a, _mm_srli_si128::<1>(a));
        let a = _mm_unpacklo_epi8(a, a);
        let a = _mm_unpacklo_epi16(a, a);
        _mm_shuffle_epi32::<0>(a)
    }
    #[inline(always)]
    unsafe fn extract0(a: Self::V) -> u8 {
        (core::arch::x86_64::_mm_cvtsi128_si32(a) & 0xff) as u8
    }
    #[inline(always)]
    unsafe fn any_ge(a: Self::V, limit: Self::V) -> bool {
        use core::arch::x86_64::*;
        // Unsigned `a ≥ limit` as `max(a, limit) == a` lane-wise.
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(a, limit), a)) != 0
    }
    #[inline(always)]
    unsafe fn or(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm_or_si128(a, b)
    }
    #[inline(always)]
    unsafe fn any_set(a: Self::V) -> bool {
        use core::arch::x86_64::*;
        // Compare against zero: movemask alone only sees the high bit.
        _mm_movemask_epi8(_mm_cmpeq_epi8(a, _mm_setzero_si128())) != 0xffff
    }
    #[inline(always)]
    unsafe fn load(p: *const u8) -> Self::V {
        crate::x86::loadu128(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut u8, v: Self::V) {
        crate::x86::storeu128(p, v)
    }
}

/// 256-bit AVX2 pipeline over the re-striped 32-lane layout.
#[cfg(target_arch = "x86_64")]
struct Avx2Pipe;

#[cfg(target_arch = "x86_64")]
impl BytePipe for Avx2Pipe {
    type V = core::arch::x86_64::__m256i;
    const LANES: usize = 32;
    #[inline(always)]
    unsafe fn zero() -> Self::V {
        core::arch::x86_64::_mm256_setzero_si256()
    }
    #[inline(always)]
    unsafe fn splat(x: u8) -> Self::V {
        core::arch::x86_64::_mm256_set1_epi8(x as i8)
    }
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_max_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_min_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_adds_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_subs_epu8(a, b)
    }
    #[inline(always)]
    unsafe fn shl1(a: Self::V) -> Self::V {
        crate::x86::shl1_u8_256(a)
    }
    #[inline(always)]
    unsafe fn bcast_hmax(a: Self::V) -> Self::V {
        use core::arch::x86_64::*;
        // Swap 128-bit halves, then rotate within each half — every lane
        // ends up holding max(a).
        let mut m = _mm256_max_epu8(a, _mm256_permute2x128_si256::<0x01>(a, a));
        m = _mm256_max_epu8(m, _mm256_alignr_epi8::<8>(m, m));
        m = _mm256_max_epu8(m, _mm256_alignr_epi8::<4>(m, m));
        m = _mm256_max_epu8(m, _mm256_alignr_epi8::<2>(m, m));
        _mm256_max_epu8(m, _mm256_alignr_epi8::<1>(m, m))
    }
    #[inline(always)]
    unsafe fn extract0(a: Self::V) -> u8 {
        core::arch::x86_64::_mm256_extract_epi8::<0>(a) as u8
    }
    #[inline(always)]
    unsafe fn any_ge(a: Self::V, limit: Self::V) -> bool {
        use core::arch::x86_64::*;
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(a, limit), a)) != 0
    }
    #[inline(always)]
    unsafe fn or(a: Self::V, b: Self::V) -> Self::V {
        core::arch::x86_64::_mm256_or_si256(a, b)
    }
    #[inline(always)]
    unsafe fn any_set(a: Self::V) -> bool {
        // AVX2 implies AVX, so `vptest` is available (the SSE2 pipeline
        // can't assume SSE4.1 and pays a compare + movemask instead).
        core::arch::x86_64::_mm256_testz_si256(a, a) == 0
    }
    #[inline(always)]
    unsafe fn load(p: *const u8) -> Self::V {
        crate::x86::loadu256(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut u8, v: Self::V) {
        crate::x86::storeu256(p, v)
    }
}

/// One fused MSV chunk: advance `S` lockstep slots by up to `rows` rows,
/// returning how many rows completed. Stops early (after finishing the
/// row for every slot) as soon as any slot overflows, flagging it in
/// `ovf`. State arrays are `MAX_BATCH`-sized; only `0..S` is live.
///
/// Every slot carries its own striped table pointer and model constants
/// (`rbv`, `biasv`, `basev`, `overv`, …); all slots share the stripe
/// count `q`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn msv_chunk<P: BytePipe, const S: usize>(
    q: usize,
    rbv: &[*const u8; MAX_BATCH],
    rows: usize,
    r0: usize,
    seqs: &[&[Residue]; MAX_BATCH],
    dp: &[*mut u8; MAX_BATCH],
    biasv: &[P::V; MAX_BATCH],
    basev: &[P::V; MAX_BATCH],
    overv: &[P::V; MAX_BATCH],
    tecv: &[P::V; MAX_BATCH],
    tjbmv: &[P::V; MAX_BATCH],
    xjv: &mut [P::V; MAX_BATCH],
    xbv: &mut [P::V; MAX_BATCH],
    limm1: &mut [P::V; MAX_BATCH],
    ovf: &mut [bool; MAX_BATCH],
) -> usize {
    let stride = q * P::LANES;
    for i in 0..rows {
        let row = r0 + i;
        let mut rowp = [rbv[0]; S];
        let mut xev = [P::zero(); S];
        let mut mpv = [P::zero(); S];
        // Row-local copies of the slot constants. Read through the state
        // arrays inside the stripe loop, they left the scalar pipe's
        // width-1 loop unvectorized (10–20× slower than width 2).
        let xb: [P::V; S] = core::array::from_fn(|s| xbv[s]);
        let bias: [P::V; S] = core::array::from_fn(|s| biasv[s]);
        for s in 0..S {
            rowp[s] = rbv[s].add(*seqs[s].get_unchecked(row) as usize * stride);
            mpv[s] = P::shl1(P::load(dp[s].add(stride - P::LANES)));
        }
        // Stripe-outer, slot-inner: the interleave is in the source so
        // every stripe step issues S independent copies of the
        // max→adds→subs chain back to back — one chain's latency is
        // hidden behind the others' arithmetic even when the OoO window
        // is full of the (serial) row-to-row `shl1(dp[last])` feedback.
        for qi in 0..q {
            let off = qi * P::LANES;
            for s in 0..S {
                let rv = P::load(rowp[s].add(off));
                let cur = P::load(dp[s].add(off));
                let sv = P::subs(P::adds(P::max(mpv[s], xb[s]), bias[s]), rv);
                xev[s] = P::max(xev[s], sv);
                mpv[s] = cur;
                P::store(dp[s].add(off), sv);
            }
        }
        // Lazy-J, the MSV analog of the striped Viterbi's lazy-F:
        // `xJ` can only grow when some `xE` lane reaches
        // `lim = min(overflow_at, xJ + tec)` (saturating), and `xB` is a
        // pure function of `xJ` — so one lane-wise test against `lim`
        // skips both the overflow check and the whole hmax reduction on
        // the (vastly most common) rows where nothing can change. `xJ` is
        // a running maximum, so it updates only O(log L) times on
        // background sequences; the test threshold is cached per slot and
        // recomputed only then. The test itself is one saturating subtract
        // per slot against `limm1 = max(lim, 1) − 1` (a lane is nonzero
        // iff `xE ≥ max(lim, 1)`), OR-folded into a single movemask +
        // branch per row. Exactness of the `max(lim, 1)` clamp (the driver
        // guarantees `overflow_at ≥ 1`):
        //   * `lim ≥ 1`: the clamp is a no-op, and a skip means every
        //     lane `< lim ≤ xJ + tec`, i.e. `hmax − tec ≤ xJ` — with
        //     saturation safe too: `xJ + tec` pinned at 255 with all
        //     lanes `< 255` already implies `hmax − tec ≤ 255 − tec ≤ xJ`.
        //   * `lim = 0`: forces `xJ = 0 ∧ tec = 0`, so the clamp only
        //     skips all-zero `xE` rows, where the slow path is a no-op
        //     (`max(0, subs(0, 0)) = 0`, no overflow since
        //     `overflow_at ≥ 1`).
        let mut hot = P::zero();
        for s in 0..S {
            hot = P::or(hot, P::subs(xev[s], limm1[s]));
        }
        if P::any_set(hot) {
            let mut any_ovf = false;
            for s in 0..S {
                if P::any_set(P::subs(xev[s], limm1[s])) {
                    // `any_ge(xev, overv)` ≡ `hmax(xev) ≥ overflow_at`
                    // for unsigned bytes.
                    if P::any_ge(xev[s], overv[s]) {
                        ovf[s] = true;
                        any_ovf = true;
                    } else {
                        let e = P::bcast_hmax(xev[s]);
                        xjv[s] = P::max(xjv[s], P::subs(e, tecv[s]));
                        xbv[s] = P::subs(P::max(basev[s], xjv[s]), tjbmv[s]);
                        let lim = P::min(overv[s], P::adds(xjv[s], tecv[s]));
                        let onev = P::splat(1);
                        limm1[s] = P::subs(P::max(lim, onev), onev);
                    }
                }
            }
            if any_ovf {
                return i + 1;
            }
        }
    }
    rows
}

/// Swap dense slot `a` and `b` across every struct-of-arrays column.
macro_rules! swap_slots {
    ($a:expr, $b:expr; $($col:expr),+ $(,)?) => {
        $( $col.swap($a, $b); )+
    };
}

/// One (model, sequence) pairing in backend-agnostic raw form: the striped
/// table pointer the slot walks plus the model constants its state vectors
/// are built from. The `rbv` pointer must match the dispatched pipeline's
/// lane width and stay valid for the whole batch call.
#[derive(Clone, Copy)]
struct SlotSpec<'a> {
    rbv: *const u8,
    base: u8,
    bias: u8,
    overflow_at: u8,
    om: &'a MsvProfile,
    seq: &'a [Residue],
}

/// Generic batched MSV driver: dense struct-of-arrays slot state, a common
/// row cursor (the scheduler keeps batch members near-equal length, so
/// slots stay fused for most of the sweep), and dropout on early finish or
/// overflow. Each slot is an independent sequence; all slots share the
/// stripe count `q`.
#[inline(always)]
unsafe fn msv_batch<P: BytePipe>(
    q: usize,
    specs: &[SlotSpec],
    ws: &mut BatchWorkspace,
    out: &mut [MsvOutcome],
) {
    let row_bytes = q * P::LANES;
    let dp0 = ws.zeroed(specs.len() * row_bytes);

    let mut slot = [0usize; MAX_BATCH];
    let mut seqd: [&[Residue]; MAX_BATCH] = [&[]; MAX_BATCH];
    let mut rbv = [core::ptr::null::<u8>(); MAX_BATCH];
    let mut dp = [core::ptr::null_mut::<u8>(); MAX_BATCH];
    let mut xjv = [P::zero(); MAX_BATCH];
    let mut xbv = [P::zero(); MAX_BATCH];
    let mut biasv = [P::zero(); MAX_BATCH];
    let mut basev = [P::zero(); MAX_BATCH];
    let mut overv = [P::zero(); MAX_BATCH];
    let mut tecv = [P::zero(); MAX_BATCH];
    let mut tjbmv = [P::zero(); MAX_BATCH];
    let mut limm1 = [P::zero(); MAX_BATCH];
    let mut ovf = [false; MAX_BATCH];
    let onev = P::splat(1);
    let mut live = 0usize;
    for (d, sp) in specs.iter().enumerate() {
        if sp.overflow_at == 0 {
            // Degenerate threshold: the striped kernel overflows on the
            // first row of any non-empty sequence. Retiring the slot
            // before it enters the rotation lets the fused loop's lazy-J
            // test assume `overflow_at ≥ 1` for every live batchmate.
            out[d] = if sp.seq.is_empty() {
                MsvOutcome {
                    xj: 0,
                    overflow: false,
                    score: sp.om.score_to_nats(0, 0),
                }
            } else {
                MsvOutcome {
                    xj: 255,
                    overflow: true,
                    score: MsvProfile::overflow_score(),
                }
            };
            continue;
        }
        let lc = sp.om.len_costs(sp.seq.len());
        slot[live] = d;
        seqd[live] = sp.seq;
        rbv[live] = sp.rbv;
        dp[live] = dp0.add(live * row_bytes);
        xbv[live] = P::splat(sp.base.saturating_sub(lc.tjbm));
        biasv[live] = P::splat(sp.bias);
        basev[live] = P::splat(sp.base);
        overv[live] = P::splat(sp.overflow_at);
        tecv[live] = P::splat(lc.tec);
        tjbmv[live] = P::splat(lc.tjbm);
        // Cached lazy-J test threshold; `xJ` starts at 0.
        limm1[live] = P::subs(P::max(P::min(overv[live], tecv[live]), onev), onev);
        live += 1;
    }

    let mut r = 0usize; // common row cursor of all live slots
    while live > 0 {
        // Retire slots whose sequence is exhausted.
        let mut d = 0;
        while d < live {
            if seqd[d].len() == r {
                let xj = P::extract0(xjv[d]);
                out[slot[d]] = MsvOutcome {
                    xj,
                    overflow: false,
                    score: specs[slot[d]].om.score_to_nats(xj, seqd[d].len()),
                };
                live -= 1;
                swap_slots!(d, live; slot, seqd, rbv, dp, xjv, xbv, biasv, basev, overv,
                    tecv, tjbmv, limm1, ovf);
                continue;
            }
            d += 1;
        }
        let Some(rows) = (0..live).map(|d| seqd[d].len() - r).min() else {
            break;
        };
        let done = match live {
            1 => msv_chunk::<P, 1>(
                q, &rbv, rows, r, &seqd, &dp, &biasv, &basev, &overv, &tecv, &tjbmv, &mut xjv,
                &mut xbv, &mut limm1, &mut ovf,
            ),
            2 => msv_chunk::<P, 2>(
                q, &rbv, rows, r, &seqd, &dp, &biasv, &basev, &overv, &tecv, &tjbmv, &mut xjv,
                &mut xbv, &mut limm1, &mut ovf,
            ),
            3 => msv_chunk::<P, 3>(
                q, &rbv, rows, r, &seqd, &dp, &biasv, &basev, &overv, &tecv, &tjbmv, &mut xjv,
                &mut xbv, &mut limm1, &mut ovf,
            ),
            _ => msv_chunk::<P, 4>(
                q, &rbv, rows, r, &seqd, &dp, &biasv, &basev, &overv, &tecv, &tjbmv, &mut xjv,
                &mut xbv, &mut limm1, &mut ovf,
            ),
        };
        r += done;
        // Retire overflowed slots (checking the swapped-in tail as well).
        let mut d = 0;
        while d < live {
            if ovf[d] {
                out[slot[d]] = MsvOutcome {
                    xj: 255,
                    overflow: true,
                    score: MsvProfile::overflow_score(),
                };
                live -= 1;
                swap_slots!(d, live; slot, seqd, rbv, dp, xjv, xbv, biasv, basev, overv,
                    tecv, tjbmv, limm1, ovf);
                ovf[live] = false;
                continue;
            }
            d += 1;
        }
    }
}

/// AVX2 monomorphization behind `#[target_feature]` so the fused loop
/// compiles to 256-bit code (the `#[inline(always)]` generics fold into
/// this feature context).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn msv_batch_avx2(
    q: usize,
    specs: &[SlotSpec],
    ws: &mut BatchWorkspace,
    out: &mut [MsvOutcome],
) {
    msv_batch::<Avx2Pipe>(q, specs, ws, out)
}

/// Dispatch a spec array to the pipeline matching `backend`. `q` must be
/// the stripe count of the layout every `specs[i].rbv` points into
/// (16-lane for scalar/SSE2, 32-lane for AVX2).
unsafe fn dispatch_msv(
    backend: Backend,
    q: usize,
    specs: &[SlotSpec],
    ws: &mut BatchWorkspace,
    out: &mut [MsvOutcome],
) {
    match backend {
        // SAFETY: with_backend only selects Sse2/Avx2 when the CPU
        // reports the feature; everywhere else it picks Scalar.
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => msv_batch::<Sse2Pipe>(q, specs, ws, out),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => msv_batch_avx2(q, specs, ws, out),
        _ => msv_batch::<ScalarPipe>(q, specs, ws, out),
    }
}

impl StripedMsv {
    fn slot_spec<'a>(&'a self, om: &'a MsvProfile, seq: &'a [Residue]) -> SlotSpec<'a> {
        SlotSpec {
            rbv: self.table_ptr(),
            base: self.base,
            bias: self.bias,
            overflow_at: self.overflow_at,
            om,
            seq,
        }
    }

    /// Score up to [`MAX_BATCH`] sequences in one interleaved pass.
    /// `out[i]` receives `seqs[i]`'s outcome, bit-identical at every width
    /// and backend to the scalar reference.
    pub fn run_batch_into(
        &self,
        om: &MsvProfile,
        seqs: &[&[Residue]],
        ws: &mut BatchWorkspace,
        out: &mut [MsvOutcome],
    ) {
        assert!(seqs.len() <= MAX_BATCH, "batch wider than MAX_BATCH");
        assert_eq!(seqs.len(), out.len());
        if seqs.is_empty() {
            return;
        }
        let mut specs = [self.slot_spec(om, &[]); MAX_BATCH];
        for (sp, &seq) in specs.iter_mut().zip(seqs) {
            sp.seq = seq;
        }
        unsafe {
            dispatch_msv(
                self.backend(),
                self.active_q(),
                &specs[..seqs.len()],
                ws,
                out,
            )
        }
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
    fn batched_msv_matches_single_all_backends_and_widths() {
        let mut rng = StdRng::seed_from_u64(3);
        for m in [1usize, 17, 33, 100, 257] {
            let om = om(m, m as u64);
            // Deliberately skewed lengths so slots finish at different rows.
            let seqs: Vec<Vec<u8>> = [0usize, 1, 7, 40, 160, 333, 40, 90]
                .iter()
                .map(|&l| random_seq(&mut rng, l))
                .collect();
            for backend in Backend::all_available() {
                let striped = StripedMsv::with_backend(&om, backend);
                let mut ws = BatchWorkspace::default();
                for width in 1..=MAX_BATCH {
                    for chunk in seqs.chunks(width) {
                        let refs: Vec<&[u8]> = chunk.iter().map(|s| s.as_slice()).collect();
                        let mut out = vec![
                            MsvOutcome {
                                xj: 0,
                                overflow: false,
                                score: 0.0
                            };
                            refs.len()
                        ];
                        striped.run_batch_into(&om, &refs, &mut ws, &mut out);
                        for (s, o) in chunk.iter().zip(&out) {
                            let want = msv_filter_scalar(&om, s);
                            assert_eq!(
                                (want.xj, want.overflow, want.score.to_bits()),
                                (o.xj, o.overflow, o.score.to_bits()),
                                "backend={backend} m={m} width={width} len={}",
                                s.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overflowing_slot_drops_out_without_corrupting_batchmates() {
        // One strongly matching homolog (which overflows the byte
        // pipeline) batched with background sequences: the survivors'
        // scores must be untouched by the dropout.
        let bg = NullModel::new();
        let core = synthetic_model(120, 3, &BuildParams::default());
        let p = Profile::config(&core, &bg);
        let om = MsvProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hom = Vec::new();
        for _ in 0..4 {
            hom.extend(h3w_seqdb::gen::sample_homolog(&mut rng, &core, 3));
        }
        assert!(
            msv_filter_scalar(&om, &hom).overflow,
            "setup: must overflow"
        );
        let b1 = random_seq(&mut rng, hom.len() + 50);
        let b2 = random_seq(&mut rng, hom.len());
        let b3 = random_seq(&mut rng, 30);
        for backend in Backend::all_available() {
            let striped = StripedMsv::with_backend(&om, backend);
            let mut ws = BatchWorkspace::default();
            let refs: Vec<&[u8]> = vec![&b1, &hom, &b2, &b3];
            let mut out = vec![
                MsvOutcome {
                    xj: 0,
                    overflow: false,
                    score: 0.0
                };
                4
            ];
            striped.run_batch_into(&om, &refs, &mut ws, &mut out);
            for (s, o) in refs.iter().zip(&out) {
                assert_eq!(msv_filter_scalar(&om, s), *o, "backend={backend}");
            }
            assert!(out[1].overflow);
        }
    }
}
