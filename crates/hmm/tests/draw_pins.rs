//! Every categorical draw pinned by digest.
//!
//! Calibration samples and synthetic models feed every pinned
//! `Calibration` and hit list downstream, so how a residue is drawn from
//! a uniform may change only if the draws stay bit for bit the same.
//! The digests below were recorded with the sequential subtract-and-
//! compare scan over `BACKGROUND_F` as the only sampler.

use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate;

/// `h3w_serve::QUERY_SEED`: the seed `hmmsearch` and `h3w-serve`
/// calibrate every query with.
const QUERY_SEED: u64 = 0x5_eac4;

/// FNV-1a, 64-bit.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn calibration_sample_is_pinned() {
    let sample = calibrate::sample(QUERY_SEED, calibrate::DEFAULT_N, calibrate::DEFAULT_LEN);
    assert_eq!((sample.len(), sample[0].len()), (500, 100));
    let digest = fnv(sample.iter().flatten().copied());
    assert_eq!(digest, 0x18d3_6940_0a7e_dd86, "digest {digest:#018x}");
}

#[test]
fn synthetic_consensus_is_pinned() {
    let model = synthetic_model(400, 5, &BuildParams::default());
    let digest = fnv(model.consensus.iter().copied());
    assert_eq!(digest, 0x81a2_f260_625b_1fac, "digest {digest:#018x}");
}
