//! Property tests: the batched interleaved MSV kernel — the one MSV row
//! loop, which `StripedMsv::run` runs at width 1 — is bit-identical to the
//! scalar spec [`msv_filter_scalar`] — scores, overflow flags, `xJ` state —
//! across every available backend, every batch width `1..=MAX_BATCH`, and
//! the hard cases: overflowing slots dropping out mid-batch, length-skewed
//! batches where slots retire one by one, and empty/degenerate sequences.
//!
//! The CI equivalence job runs this file twice: natively (AVX2/SSE2 where
//! the runner has them) and under `H3W_SIMD_BACKEND=scalar`.

use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::{
    length_binned_batches, msv_filter_scalar, outcomes_batched, Backend, BatchWorkspace,
    MsvOutcome, MAX_BATCH,
};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::plan7::CoreModel;
use h3w_hmm::profile::Profile;
use h3w_hmm::NullModel;
use h3w_seqdb::gen::sample_homolog;
use h3w_seqdb::DigitalSeq;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model_and_profile(m: usize, seed: u64) -> (CoreModel, MsvProfile) {
    let bg = NullModel::new();
    let core = synthetic_model(m, seed, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let om = MsvProfile::from_profile(&p);
    (core, om)
}

fn bits(o: &MsvOutcome) -> (u8, bool, u32) {
    (o.xj, o.overflow, o.score.to_bits())
}

/// Score `seqs` through the batched kernel at `width` on `backend` and
/// assert every outcome matches the scalar spec.
fn assert_batched_matches(
    om: &MsvProfile,
    seqs: &[Vec<u8>],
    backend: Backend,
    width: usize,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let smsv = StripedMsv::with_backend(om, backend);
    let mut ws = BatchWorkspace::default();
    for batch in seqs.chunks(width) {
        let refs: Vec<&[u8]> = batch.iter().map(|s| s.as_slice()).collect();
        let mut got_msv = vec![
            MsvOutcome {
                xj: 0,
                overflow: false,
                score: 0.0
            };
            refs.len()
        ];
        smsv.run_batch_into(om, &refs, &mut ws, &mut got_msv);
        for (i, seq) in batch.iter().enumerate() {
            let want_msv = msv_filter_scalar(om, seq);
            prop_assert_eq!(
                bits(&want_msv),
                bits(&got_msv[i]),
                "MSV {} S={} slot {} len {} diverged ({ctx})",
                backend,
                width,
                i,
                seq.len()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_kernels_bit_identical_for_random_batches(
        m in 1usize..300,
        model_seed in 0u64..10_000,
        seq_seed in 0u64..10_000,
    ) {
        let (_, om) = model_and_profile(m, model_seed);
        let mut rng = StdRng::seed_from_u64(seq_seed);
        // Length-skewed on purpose: slots retire at different rows, so the
        // fused loop re-dispatches at every narrower width.
        let seqs: Vec<Vec<u8>> = (0..MAX_BATCH)
            .map(|i| random_seq(&mut rng, 3 + 97 * i * i))
            .collect();
        for backend in Backend::all_available() {
            for width in 1..=MAX_BATCH {
                assert_batched_matches(&om, &seqs, backend, width, "random")?;
            }
        }
    }

    #[test]
    fn overflowing_homologs_interleaved_with_background(
        m in 40usize..160,
        seq_seed in 0u64..10_000,
    ) {
        // Repeated homolog segments push the 8-bit MSV score into
        // saturation; the overflowing slot must retire without nudging the
        // background sequences sharing its batch.
        let (core, om) = model_and_profile(m, 11);
        let mut rng = StdRng::seed_from_u64(seq_seed);
        let mut hot = Vec::new();
        for _ in 0..6 {
            hot.extend(sample_homolog(&mut rng, &core, 3));
        }
        let seqs = vec![
            random_seq(&mut rng, 240),
            hot,
            random_seq(&mut rng, 60),
            random_seq(&mut rng, 400),
        ];
        for backend in Backend::all_available() {
            for width in 2..=MAX_BATCH {
                assert_batched_matches(&om, &seqs, backend, width, "overflow")?;
            }
        }
    }

    #[test]
    fn id_list_batched_sweep_matches_filters(
        m in 1usize..200,
        seq_seed in 0u64..10_000,
        pick_bits in 0u32..(1 << 10),
    ) {
        // The full scheduler path: id list → length bins → batched kernel
        // → one outcome per listed id, in list order. A random ascending
        // subset, the empty list and every id, at every width on every
        // runnable backend, each against the width-1 score of the
        // sequence the id names.
        let (_, om) = model_and_profile(m, 7);
        let mut rng = StdRng::seed_from_u64(seq_seed);
        let seqs: Vec<DigitalSeq> = (0..10)
            .map(|i| DigitalSeq {
                name: format!("s{i}"),
                desc: String::new(),
                residues: random_seq(&mut rng, 11 + 53 * i),
            })
            .collect();
        let picked: Vec<u32> = (0..10).filter(|i| pick_bits & (1 << i) != 0).collect();
        let all: Vec<u32> = (0..10).collect();
        let pool = h3w_cpu::ThreadPool::global();
        for backend in Backend::all_available() {
            let striped_msv = StripedMsv::with_backend(&om, backend);
            let single: Vec<_> = seqs.iter().map(|s| bits(&striped_msv.run(&om, &s.residues))).collect();
            for (i, s) in seqs.iter().enumerate() {
                prop_assert_eq!(bits(&msv_filter_scalar(&om, &s.residues)), single[i]);
            }
            let kernel = (&striped_msv, &om);
            for width in 1..=MAX_BATCH {
                for ids in [&picked[..], &[], &all[..]] {
                    let got_msv = outcomes_batched(pool, &[(kernel, Some(ids))], &seqs, width);
                    prop_assert_eq!(got_msv[0].len(), ids.len());
                    for (k, o) in got_msv[0].iter().enumerate() {
                        prop_assert_eq!(
                            single[ids[k] as usize],
                            bits(o),
                            "{} S={} position {} of {:?}",
                            backend,
                            width,
                            k,
                            ids
                        );
                    }
                }
                // `None` is the list of every id.
                let unlisted = outcomes_batched(pool, &[(kernel, None)], &seqs, width);
                prop_assert_eq!(unlisted[0].iter().map(bits).collect::<Vec<_>>(), single.clone());
            }
        }
    }

    #[test]
    fn length_binning_is_a_permutation_of_the_selection(
        n in 0usize..40,
        width in 1usize..=MAX_BATCH,
        pick_seed in 0u64..1000,
        len_seed in 0u64..1000,
    ) {
        use rand::Rng;
        let mut lrng = StdRng::seed_from_u64(len_seed);
        let lens: Vec<usize> = (0..n).map(|_| lrng.gen_range(0..5000)).collect();
        let mut prng = StdRng::seed_from_u64(pick_seed);
        let ids: Vec<u32> = (0..n as u32).filter(|_| prng.gen_bool(0.5)).collect();
        let batches = length_binned_batches(&lens, Some(&ids), width);
        let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
        for b in &batches {
            prop_assert!(!b.is_empty() && b.len() <= width);
            // Within a batch, lengths are non-increasing (lockstep bins).
            for w in b.windows(2) {
                prop_assert!(lens[w[0]] >= lens[w[1]]);
            }
        }
        seen.sort_unstable();
        let want: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        prop_assert_eq!(seen, want);
    }
}

#[test]
fn degenerate_batches_match_single_sequence() {
    // Empty sequences, width-1 batches, all-empty batches, and a batch
    // whose members differ in length by 1000× — the retire logic's edge
    // cases, exercised on every backend.
    let (_, om) = model_and_profile(33, 5);
    let mut rng = StdRng::seed_from_u64(99);
    let long = random_seq(&mut rng, 50_000);
    let sets: Vec<Vec<Vec<u8>>> = vec![
        vec![vec![], vec![], vec![], vec![]],
        vec![vec![0u8], vec![], vec![19u8], vec![]],
        vec![long.clone(), random_seq(&mut rng, 50), vec![7u8], vec![]],
    ];
    for backend in Backend::all_available() {
        for seqs in &sets {
            for width in 1..=MAX_BATCH {
                assert_batched_matches(&om, seqs, backend, width, "degenerate")
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}
