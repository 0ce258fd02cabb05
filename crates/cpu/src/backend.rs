//! Runtime SIMD backend selection for the striped filters.
//!
//! The striped MSV, Viterbi and Forward filters each have one row loop,
//! generic over a lane pipe and monomorphized for three backends:
//!
//! * **Scalar** — the portable emulated-lane reference (fixed-size-array
//!   loops the compiler may auto-vectorize).
//! * **SSE2** — real `core::arch` 128-bit intrinsics over the *same*
//!   16 × u8 / 8 × i16 / 4 × f32 striped layout.
//! * **AVX2** — 256-bit intrinsics. MSV and Viterbi re-stripe to 32 × u8
//!   / 16 × i16 lanes (`Q = ⌈M/32⌉` byte vectors, `⌈M/16⌉` word
//!   vectors); Forward keeps the 4 × f32 stripe and takes two adjacent
//!   stripe vectors per register.
//!
//! All three produce bit-identical scores: the byte and word recurrences
//! use only saturating adds and maxes whose results do not depend on the
//! striping geometry, the Lazy-F loop converges to the same fixed point
//! regardless of lane count, and Forward runs the same float operations
//! in the same order on every backend. The best available backend is chosen
//! once (at `Pipeline::prepare` via [`Backend::detect`]) and cached.

use std::sync::OnceLock;

/// Which vector implementation drives the striped filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable emulated lanes (reference semantics, any architecture).
    Scalar,
    /// 128-bit `core::arch` intrinsics, 16 u8 / 8 i16 lanes.
    Sse2,
    /// 256-bit `core::arch` intrinsics, 32 u8 / 16 i16 lanes.
    Avx2,
}

impl Backend {
    /// Stable lowercase name (used in bench artifacts and the
    /// `H3W_SIMD_BACKEND` override).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parse an override name.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true, // baseline of the x86_64 ABI
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every backend the current CPU can run, scalar first.
    pub fn all_available() -> Vec<Backend> {
        [Backend::Scalar, Backend::Sse2, Backend::Avx2]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    /// The backend the striped filters should use: the
    /// `H3W_SIMD_BACKEND=scalar|sse2|avx2` override when set *and*
    /// runnable, otherwise the widest available. Detection runs once per
    /// process and is cached.
    pub fn detect() -> Backend {
        static CHOSEN: OnceLock<Backend> = OnceLock::new();
        *CHOSEN.get_or_init(|| {
            if let Ok(v) = std::env::var("H3W_SIMD_BACKEND") {
                match Backend::from_name(&v) {
                    Some(b) if b.available() => return b,
                    Some(b) => eprintln!(
                        "H3W_SIMD_BACKEND={} requested but {} is unavailable on this CPU; \
                         falling back to auto-detection",
                        v,
                        b.name()
                    ),
                    None => {
                        eprintln!("H3W_SIMD_BACKEND={v} is not one of scalar|sse2|avx2; ignoring")
                    }
                }
            }
            Backend::best_available()
        })
    }

    /// The widest backend the CPU supports (ignores the env override).
    pub fn best_available() -> Backend {
        *Backend::all_available().last().unwrap_or(&Backend::Scalar)
    }

    /// How many sequences the batched filter kernels should interleave on
    /// this backend (see [`crate::batch`]). The real SIMD backends want
    /// four independent dependency chains to cover the per-row broadcast
    /// latency; the emulated scalar backend spills past two (each emulated
    /// vector is itself 16 registers wide), so it stops there.
    pub fn preferred_batch_width(self) -> usize {
        match self {
            Backend::Scalar => 2,
            Backend::Sse2 | Backend::Avx2 => 4,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.available());
        assert!(Backend::all_available().contains(&Backend::Scalar));
    }

    #[test]
    fn names_round_trip() {
        for b in [Backend::Scalar, Backend::Sse2, Backend::Avx2] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("AVX2"), Some(Backend::Avx2));
        assert_eq!(Backend::from_name("neon"), None);
    }

    #[test]
    fn detect_is_stable_and_available() {
        let a = Backend::detect();
        let b = Backend::detect();
        assert_eq!(a, b);
        assert!(a.available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_is_baseline_on_x86_64() {
        assert!(Backend::Sse2.available());
    }
}
