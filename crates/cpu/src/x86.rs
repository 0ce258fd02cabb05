//! x86_64 intrinsic helpers shared by the SSE2 and AVX2 filter kernels.
//!
//! Only the MSV byte tables are vector-aligned; the word tables and rows
//! are plain arrays, so every load/store here is unaligned. The AVX2
//! cross-lane shifts use the `vperm2i128` + `valignr` idiom: build
//! `t = [fill_lane, a.low]`, then `alignr(a, t, 16 - step)` yields the
//! whole 256-bit register shifted up by one element with `fill` injected
//! into element 0 — the AVX2 equivalent of `_mm_slli_si128` for Farrar's
//! diagonal move.
//!
//! # Safety contract (all functions)
//!
//! Pointer arguments must be valid for reads/writes of the full vector
//! width (16 or 32 bytes, any alignment unless stated otherwise), and
//! the `_256` variants must only be called when the `avx2` CPU feature
//! is present (the backend dispatcher guarantees this). The per-function
//! `# Safety` sections would all restate exactly this, hence the blanket
//! lint allow.

#![cfg(target_arch = "x86_64")]
#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

/// A 32-byte-aligned byte vector for AVX2 emission tables. `Vec<[u8; 32]>`
/// has alignment 1, which makes half of all 32-byte loads straddle a
/// cache line; pinning rows to their natural alignment removes the split.
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy)]
pub struct ByteRow32(pub [u8; 32]);

/// Unaligned 128-bit load from a lane-array slice element.
#[inline(always)]
pub unsafe fn loadu128<T>(p: *const T) -> __m128i {
    _mm_loadu_si128(p as *const __m128i)
}

/// Unaligned 128-bit store to a lane-array slice element.
#[inline(always)]
pub unsafe fn storeu128<T>(p: *mut T, v: __m128i) {
    _mm_storeu_si128(p as *mut __m128i, v)
}

/// Unaligned 256-bit load.
#[inline(always)]
pub unsafe fn loadu256<T>(p: *const T) -> __m256i {
    _mm256_loadu_si256(p as *const __m256i)
}

/// Unaligned 256-bit store.
#[inline(always)]
pub unsafe fn storeu256<T>(p: *mut T, v: __m256i) {
    _mm256_storeu_si256(p as *mut __m256i, v)
}

/// Horizontal max of 8 signed words.
#[inline(always)]
pub unsafe fn hmax_epi16(v: __m128i) -> i16 {
    let v = _mm_max_epi16(v, _mm_srli_si128::<8>(v));
    let v = _mm_max_epi16(v, _mm_srli_si128::<4>(v));
    let v = _mm_max_epi16(v, _mm_srli_si128::<2>(v));
    _mm_cvtsi128_si32(v) as i16
}

/// Shift bytes up one lane, injecting 0 into lane 0
/// (`_mm_slli_si128(v, 1)`).
#[inline(always)]
pub unsafe fn shl1_u8_128(a: __m128i) -> __m128i {
    _mm_slli_si128::<1>(a)
}

/// Shift words up one lane, injecting `fill` into lane 0.
#[inline(always)]
pub unsafe fn shl1_i16_128(a: __m128i, fill: i16) -> __m128i {
    _mm_insert_epi16::<0>(_mm_slli_si128::<2>(a), fill as i32)
}

/// Any lane of `a` strictly greater (signed words) than in `b`?
#[inline(always)]
pub unsafe fn any_gt_epi16_128(a: __m128i, b: __m128i) -> bool {
    _mm_movemask_epi8(_mm_cmpgt_epi16(a, b)) != 0
}

/// Horizontal max of 16 signed words.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn hmax_epi16_256(v: __m256i) -> i16 {
    let m = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    hmax_epi16(m)
}

/// Shift bytes up one lane across the full 256-bit register, injecting 0
/// into lane 0.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn shl1_u8_256(a: __m256i) -> __m256i {
    // t = [0, a.low]; per-128-lane alignr by 15 then stitches
    // [0, a[0..15), a[15], a[16..31)] = whole-register shift.
    let t = _mm256_permute2x128_si256::<0x08>(a, a);
    _mm256_alignr_epi8::<15>(a, t)
}

/// Shift words up one lane across the full 256-bit register, injecting
/// `fill` into lane 0.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn shl1_i16_256(a: __m256i, fill: i16) -> __m256i {
    let fillv = _mm256_set1_epi16(fill);
    // t = [fillv.low, a.low].
    let t = _mm256_permute2x128_si256::<0x02>(a, fillv);
    _mm256_alignr_epi8::<14>(a, t)
}

/// Any lane of `a` strictly greater (signed words) than in `b`?
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn any_gt_epi16_256(a: __m256i, b: __m256i) -> bool {
    _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sse2_helpers_match_lane_semantics() {
        // SSE2 is baseline on x86_64.
        unsafe {
            let bytes: [u8; 16] = core::array::from_fn(|i| (i * 13 + 7) as u8);
            let v = loadu128(bytes.as_ptr());

            let mut out = [0u8; 16];
            storeu128(out.as_mut_ptr(), shl1_u8_128(v));
            assert_eq!(out[0], 0);
            assert_eq!(&out[1..], &bytes[..15]);

            let words: [i16; 8] = [3, -5, 30000, 7, -32768, 0, 99, -1];
            let w = loadu128(words.as_ptr());
            assert_eq!(hmax_epi16(w), 30000);
            let mut wout = [0i16; 8];
            storeu128(wout.as_mut_ptr(), shl1_i16_128(w, i16::MIN));
            assert_eq!(wout[0], i16::MIN);
            assert_eq!(&wout[1..], &words[..7]);

            assert!(any_gt_epi16_128(w, _mm_set1_epi16(29999)));
            assert!(!any_gt_epi16_128(w, _mm_set1_epi16(30000)));
        }
    }

    #[test]
    fn avx2_helpers_match_lane_semantics() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        unsafe { avx2_helper_check() }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_helper_check() {
        let bytes: [u8; 32] = core::array::from_fn(|i| (i * 11 + 3) as u8);
        let v = loadu256(bytes.as_ptr());

        let mut out = [0u8; 32];
        storeu256(out.as_mut_ptr(), shl1_u8_256(v));
        assert_eq!(out[0], 0);
        assert_eq!(&out[1..], &bytes[..31]);

        let words: [i16; 16] = core::array::from_fn(|i| (i as i16) * -1001 + 500);
        let w = loadu256(words.as_ptr());
        assert_eq!(hmax_epi16_256(w), *words.iter().max().unwrap());
        let mut wout = [0i16; 16];
        storeu256(wout.as_mut_ptr(), shl1_i16_256(w, -32768));
        assert_eq!(wout[0], -32768);
        assert_eq!(&wout[1..], &words[..15]);

        assert!(any_gt_epi16_256(w, _mm256_set1_epi16(499)));
        assert!(!any_gt_epi16_256(w, _mm256_set1_epi16(500)));
    }
}
