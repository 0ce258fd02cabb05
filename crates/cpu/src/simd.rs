//! Emulated 128-bit SIMD lane operations.
//!
//! HMMER 3.0's production filters use SSE2 intrinsics (`_mm_max_epu8`,
//! `_mm_adds_epi16`, `_mm_slli_si128`, …). Stable Rust has no portable
//! SIMD, so these fixed-size-array kernels reproduce the exact lane
//! semantics; the loops are trivially auto-vectorizable (all `#[inline]`,
//! no branches), which is what the quoted "16-fold speedup on a commodity
//! processor" (§I) rests on.

/// 16 × u8 vector (one SSE register of byte scores).
pub type V16u8 = [u8; 16];
/// 8 × i16 vector (one SSE register of word scores).
pub type V8i16 = [i16; 8];
/// 4 × f32 vector (one SSE register of odds-space Forward values).
pub type V4f32 = [f32; 4];

/// A 16-byte-aligned byte vector for 128-bit emission tables and DP rows.
///
/// `Vec<[u8; 16]>` has alignment 1, so a 16-byte SSE2 row load from it can
/// straddle a cache line (a split load costs an extra cycle and a second
/// fill buffer on every row of every sequence). Pinning rows to their
/// natural alignment removes the split — the 128-bit sibling of
/// [`ByteRow32`](crate::x86::ByteRow32).
#[repr(C, align(16))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRow16(pub [u8; 16]);

impl ByteRow16 {
    /// The all-zero row (the DP floor).
    pub const ZERO: ByteRow16 = ByteRow16([0u8; 16]);
}

/// Broadcast a byte to all lanes (`_mm_set1_epi8`).
#[inline(always)]
pub fn splat_u8(v: u8) -> V16u8 {
    [v; 16]
}

/// Broadcast a word to all lanes (`_mm_set1_epi16`).
#[inline(always)]
pub fn splat_i16(v: i16) -> V8i16 {
    [v; 8]
}

/// Lane-wise unsigned max (`_mm_max_epu8`).
#[inline(always)]
pub fn max_u8(a: V16u8, b: V16u8) -> V16u8 {
    let mut r = [0u8; 16];
    for i in 0..16 {
        r[i] = a[i].max(b[i]);
    }
    r
}

/// Lane-wise unsigned minimum (`_mm_min_epu8`).
#[inline(always)]
pub fn min_u8(a: V16u8, b: V16u8) -> V16u8 {
    let mut r = [0u8; 16];
    for i in 0..16 {
        r[i] = a[i].min(b[i]);
    }
    r
}

/// Lane-wise saturating add (`_mm_adds_epu8`).
#[inline(always)]
pub fn adds_u8(a: V16u8, b: V16u8) -> V16u8 {
    let mut r = [0u8; 16];
    for i in 0..16 {
        r[i] = a[i].saturating_add(b[i]);
    }
    r
}

/// Lane-wise saturating subtract (`_mm_subs_epu8`).
#[inline(always)]
pub fn subs_u8(a: V16u8, b: V16u8) -> V16u8 {
    let mut r = [0u8; 16];
    for i in 0..16 {
        r[i] = a[i].saturating_sub(b[i]);
    }
    r
}

/// Horizontal max over all 16 lanes (HMMER's `esl_sse_hmax_epu8`).
#[inline(always)]
pub fn hmax_u8(a: V16u8) -> u8 {
    let mut m = a[0];
    for &v in &a[1..] {
        m = m.max(v);
    }
    m
}

/// Shift lanes up by one, injecting `fill` into lane 0
/// (`_mm_slli_si128(v, 1)` for the striped diagonal move).
#[inline(always)]
pub fn shift_u8(a: V16u8, fill: u8) -> V16u8 {
    let mut r = [fill; 16];
    r[1..16].copy_from_slice(&a[0..15]);
    r
}

/// Lane-wise signed max (`_mm_max_epi16`).
#[inline(always)]
pub fn max_i16(a: V8i16, b: V8i16) -> V8i16 {
    let mut r = [0i16; 8];
    for i in 0..8 {
        r[i] = a[i].max(b[i]);
    }
    r
}

/// Lane-wise saturating signed add (`_mm_adds_epi16`).
#[inline(always)]
pub fn adds_i16(a: V8i16, b: V8i16) -> V8i16 {
    let mut r = [0i16; 8];
    for i in 0..8 {
        r[i] = a[i].saturating_add(b[i]);
    }
    r
}

/// Horizontal max over all 8 lanes (`esl_sse_hmax_epi16`).
#[inline(always)]
pub fn hmax_i16(a: V8i16) -> i16 {
    let mut m = a[0];
    for &v in &a[1..] {
        m = m.max(v);
    }
    m
}

/// Shift lanes up by one, injecting `fill` into lane 0
/// (`_mm_slli_si128(v, 2)` for word vectors).
#[inline(always)]
pub fn shift_i16(a: V8i16, fill: i16) -> V8i16 {
    let mut r = [fill; 8];
    r[1..8].copy_from_slice(&a[0..7]);
    r
}

/// Lane-wise "any greater than" test (`_mm_movemask` of a compare) —
/// the Lazy-F loop's continuation condition.
#[inline(always)]
pub fn any_gt_i16(a: V8i16, b: V8i16) -> bool {
    for i in 0..8 {
        if a[i] > b[i] {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_ops_lanewise() {
        let a: V16u8 = core::array::from_fn(|i| i as u8 * 10);
        let b = splat_u8(100);
        let m = max_u8(a, b);
        assert_eq!(m[0], 100);
        assert_eq!(m[15], 150);
        let s = adds_u8(a, b);
        assert_eq!(s[15], 250);
        assert_eq!(adds_u8(splat_u8(200), splat_u8(200))[3], 255);
        assert_eq!(subs_u8(splat_u8(10), splat_u8(30))[0], 0);
    }

    #[test]
    fn u8_hmax_and_shift() {
        let a: V16u8 = core::array::from_fn(|i| (i * 7 % 13) as u8);
        assert_eq!(hmax_u8(a), *a.iter().max().unwrap());
        let sh = shift_u8(a, 9);
        assert_eq!(sh[0], 9);
        for i in 1..16 {
            assert_eq!(sh[i], a[i - 1]);
        }
    }

    #[test]
    fn i16_ops_lanewise() {
        let a: V8i16 = core::array::from_fn(|i| i as i16 * 1000 - 3000);
        let b = splat_i16(-500);
        assert_eq!(max_i16(a, b)[0], -500);
        assert_eq!(max_i16(a, b)[7], 4000);
        assert_eq!(adds_i16(splat_i16(i16::MIN), splat_i16(-10))[0], i16::MIN);
        assert_eq!(adds_i16(splat_i16(30000), splat_i16(10000))[0], i16::MAX);
    }

    #[test]
    fn i16_hmax_shift_any_gt() {
        let a: V8i16 = [3, -5, 100, 7, 7, -32768, 0, 99];
        assert_eq!(hmax_i16(a), 100);
        let sh = shift_i16(a, i16::MIN);
        assert_eq!(sh[0], i16::MIN);
        assert_eq!(sh[1], 3);
        assert_eq!(sh[7], 0);
        assert!(any_gt_i16(a, splat_i16(99)));
        assert!(!any_gt_i16(a, splat_i16(100)));
    }
}
