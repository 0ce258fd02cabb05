//! Property tests: every SIMD backend is bit-identical to the scalar
//! specs ([`msv_filter_scalar`], [`vit_filter_scalar`]) for the striped
//! MSV and P7Viterbi filters — scores, overflow flags, and the survivor
//! sets they induce — across model sizes that straddle both the 16/32-lane
//! (MSV) and 8/16-lane (Viterbi) stripe boundaries, and across degenerate
//! sequences (empty, single-residue, longer than 64 KiB). The specs are
//! separate code: the `Scalar` backend runs the same generic row loop as
//! the others, so agreeing with it alone would not catch a change to
//! that loop.

use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::striped_vit::{StripedVit, VitWorkspace, VIT_LANES, VIT_LANES_AVX2};
use h3w_cpu::{msv_filter_scalar, vit_filter_scalar, Backend};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_seqdb::gen::sample_homolog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn profiles(m: usize, seed: u64) -> (MsvProfile, VitProfile) {
    let bg = NullModel::new();
    let core = synthetic_model(m, seed, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    (MsvProfile::from_profile(&p), VitProfile::from_profile(&p))
}

/// Assert every available backend reproduces the scalar specs' outcome on
/// `seq`, bit for bit.
fn assert_backends_match(
    msv: &MsvProfile,
    vit: &VitProfile,
    seq: &[u8],
    ctx: &str,
) -> Result<(), TestCaseError> {
    let mut dp = Vec::new();
    let mut ws = VitWorkspace::default();
    let m0 = msv_filter_scalar(msv, seq);
    let v0 = vit_filter_scalar(vit, seq);
    for backend in Backend::all_available() {
        let mb = StripedMsv::with_backend(msv, backend).run_into(msv, seq, &mut dp);
        let vb = StripedVit::with_backend(vit, backend)
            .run_into(vit, seq, &mut ws)
            .0;
        prop_assert_eq!(
            (m0.xj, m0.overflow, m0.score.to_bits()),
            (mb.xj, mb.overflow, mb.score.to_bits()),
            "MSV {} vs msv_filter_scalar diverged ({ctx})",
            backend
        );
        prop_assert_eq!(
            (v0.xc, v0.score.to_bits()),
            (vb.xc, vb.score.to_bits()),
            "Viterbi {} vs vit_filter_scalar diverged ({ctx})",
            backend
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn filters_bit_identical_across_backends(
        m in 1usize..400,
        model_seed in 0u64..10_000,
        seq_seed in 0u64..10_000,
        len in 0usize..600,
    ) {
        let (msv, vit) = profiles(m, model_seed);
        let seq = random_seq(&mut StdRng::seed_from_u64(seq_seed), len);
        assert_backends_match(&msv, &vit, &seq, &format!("m={m} len={len}"))?;
    }

    #[test]
    fn survivor_sets_identical_across_backends(
        m in 1usize..200,
        seq_seed in 0u64..10_000,
    ) {
        // A batch of sequences thresholded on the MSV/Viterbi scores must
        // select the same survivors under every backend.
        let (msv, vit) = profiles(m, 17);
        let mut rng = StdRng::seed_from_u64(seq_seed);
        let seqs: Vec<Vec<u8>> = (0..24).map(|i| random_seq(&mut rng, 20 + 13 * i)).collect();
        let mask = |backend: Backend| -> (Vec<bool>, Vec<bool>) {
            let smsv = StripedMsv::with_backend(&msv, backend);
            let svit = StripedVit::with_backend(&vit, backend);
            let mut dp = Vec::new();
            let mut ws = VitWorkspace::default();
            let ms: Vec<f32> = seqs.iter().map(|s| smsv.run_into(&msv, s, &mut dp).score).collect();
            let vs: Vec<f32> = seqs.iter().map(|s| svit.run_into(&vit, s, &mut ws).0.score).collect();
            // Median split: roughly half the batch "survives" each stage,
            // so a single flipped score is certain to flip a mask bit.
            let median = |xs: &[f32]| {
                let mut v = xs.to_vec();
                v.sort_by(f32::total_cmp);
                v[v.len() / 2]
            };
            let (tm, tv) = (median(&ms), median(&vs));
            (
                ms.iter().map(|&s| s >= tm).collect(),
                vs.iter().map(|&s| s >= tv).collect(),
            )
        };
        let scalar = mask(Backend::Scalar);
        for backend in Backend::all_available() {
            prop_assert_eq!(&scalar, &mask(backend), "survivors diverged under {}", backend);
        }
    }
}

#[test]
fn degenerate_sequences_match_across_backends() {
    // Empty input, a single residue, and a > 64 KiB sequence — the cases
    // that stress workspace sizing, the q=0 wrap, and overflow handling.
    let mut rng = StdRng::seed_from_u64(99);
    let long = random_seq(&mut rng, 70_000);
    for m in [1usize, 16, 31, 32, 33, 257] {
        let (msv, vit) = profiles(m, 5);
        for seq in [&[][..], &[0u8][..], &[19u8][..], &long[..]] {
            assert_backends_match(&msv, &vit, seq, &format!("m={m} len={}", seq.len()))
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn d_heavy_models_close_in_at_most_lanes_walks() {
    // D→D at ≈ 0 nats and a generous M→D: a delete chain never decays,
    // so a carry crosses every lane boundary and the Lazy-F runs its
    // full pass budget (q = 1 for M ≤ 8 on the 128-bit layouts and
    // M ≤ 16 on AVX2, where every hop is a lane boundary; M = 2405 for
    // long stripes). Each backend must still equal the in-order scalar
    // filter bit for bit, and no row may start more walks over its D
    // row than the layout has lanes.
    let bg = NullModel::new();
    let mut rng = StdRng::seed_from_u64(0xdd);
    for m in [1usize, 2, 7, 8, 9, 16, 17, 130, 2405] {
        let mut core = synthetic_model(m, 77, &BuildParams::gappy());
        for node in &mut core.nodes {
            (node.t.mm, node.t.mi, node.t.md) = (0.55, 0.05, 0.40);
            (node.t.dm, node.t.dd) = (0.001, 0.999);
        }
        let vit = VitProfile::from_profile(&Profile::config(&core, &bg));
        let mut seqs = vec![
            random_seq(&mut rng, 150),
            sample_homolog(&mut rng, &core, 4),
        ];
        seqs.push([&seqs[1][..], &seqs[0][..40], &seqs[1][..]].concat());
        for backend in Backend::all_available() {
            let striped = StripedVit::with_backend(&vit, backend);
            let lanes = if backend == Backend::Avx2 {
                VIT_LANES_AVX2
            } else {
                VIT_LANES
            };
            let mut deepest = 0;
            for seq in &seqs {
                let (got, stats) = striped.run(&vit, seq);
                assert_eq!(got, vit_filter_scalar(&vit, seq), "{backend} m={m}");
                assert!(
                    stats.max_passes as usize <= lanes && stats.total_passes >= stats.rows,
                    "{backend} m={m}: {stats:?}"
                );
                deepest = deepest.max(stats.max_passes as usize);
            }
            // The budget is reached, not merely allowed: when the last
            // lane holds a real node a chain runs through all of them.
            if m > (lanes - 1) * m.div_ceil(lanes) {
                assert_eq!(deepest, lanes, "{backend} m={m}");
            }
        }
    }
}

#[test]
fn padded_cells_follow_the_walked_layout() {
    // The cell and byte accounting must describe the layout the backend
    // walks: ⌈M/lanes⌉ vectors of its own lane count.
    for m in [17usize, 40, 2405] {
        let (msv, vit) = profiles(m, 3);
        for backend in Backend::all_available() {
            let wide = backend == Backend::Avx2;
            let lanes = if wide { VIT_LANES_AVX2 } else { VIT_LANES };
            let sv = StripedVit::with_backend(&vit, backend);
            assert_eq!(
                sv.padded_cells_per_row(),
                3 * lanes * m.div_ceil(lanes),
                "{backend} m={m}"
            );
            assert_eq!(sv.bytes_per_row(), 10 * sv.padded_cells_per_row() as u64);
            assert_eq!(sv.q, m.div_ceil(lanes), "{backend} m={m}");
            let lanes = if wide { 32 } else { 16 };
            let sm = StripedMsv::with_backend(&msv, backend);
            assert_eq!(
                sm.padded_cells_per_row(),
                lanes * m.div_ceil(lanes),
                "{backend} m={m}"
            );
            assert_eq!(sm.bytes_per_row(), 3 * sm.padded_cells_per_row() as u64);
        }
    }
}

#[test]
fn forced_backend_env_var_is_honored() {
    // H3W_SIMD_BACKEND is read once (OnceLock) — spawn a child test run
    // would be heavy, so just check from_name round-trips the accepted
    // spellings used by the env override.
    for (name, want) in [
        ("scalar", Backend::Scalar),
        ("sse2", Backend::Sse2),
        ("avx2", Backend::Avx2),
    ] {
        assert_eq!(Backend::from_name(name), Some(want));
    }
    assert_eq!(Backend::from_name("neon"), None);
}
