//! Property-based tests (proptest) on the workspace's core invariants.

mod common;

use hmmer3_warp::core::dd_prefix::{lazy_f_resolve, prefix_resolve, scalar_resolve};
use hmmer3_warp::cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
use hmmer3_warp::cpu::{StripedMsv, StripedVit};
use hmmer3_warp::hmm::alphabet::{self, Residue};
use hmmer3_warp::hmm::calibrate::{exp_pvalue, gumbel_pvalue, LAMBDA};
use hmmer3_warp::hmm::vitprofile::W_NEG_INF;
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::pack::{pack_seq, unpack_slot, RESIDUES_PER_WORD};
use hmmer3_warp::simt::{fermi_scratch_per_warp, imbalance_factor, Lanes, SimtCtx};
use proptest::prelude::*;

fn residue_seq(max_len: usize) -> impl Strategy<Value = Vec<Residue>> {
    prop::collection::vec(0u8..26u8, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packing_round_trips(seq in residue_seq(400)) {
        let words = pack_seq(&seq);
        prop_assert_eq!(words.len(), seq.len().div_ceil(RESIDUES_PER_WORD).max(1));
        for (i, &r) in seq.iter().enumerate() {
            prop_assert_eq!(
                unpack_slot(words[i / RESIDUES_PER_WORD], i % RESIDUES_PER_WORD),
                r
            );
        }
        // Padding slots carry the terminator flag.
        for j in seq.len()..words.len() * RESIDUES_PER_WORD {
            prop_assert_eq!(
                unpack_slot(words[j / RESIDUES_PER_WORD], j % RESIDUES_PER_WORD),
                alphabet::PAD_CODE
            );
        }
    }

    #[test]
    fn digitize_textize_round_trip(seq in residue_seq(200)) {
        let text = alphabet::textize_seq(&seq).unwrap();
        prop_assert_eq!(alphabet::digitize_seq(&text).unwrap(), seq);
    }

    #[test]
    fn butterfly_max_equals_iterator_max(vals in prop::array::uniform32(i16::MIN..i16::MAX)) {
        let expect = vals.iter().copied().max().unwrap();
        // Kepler's shuffle butterfly and Fermi's shared-memory halving.
        for dev in [DeviceSpec::tesla_k40(), DeviceSpec::gtx_580()] {
            let mut ctx = SimtCtx::new(&dev, fermi_scratch_per_warp(2), false);
            prop_assert_eq!(ctx.warp_reduce(Lanes(vals), 0, Ord::max), expect);
        }
    }

    #[test]
    fn dd_resolutions_agree(
        seeds in prop::collection::vec(-30000i16..10000i16, 1..200),
        tdd_raw in prop::collection::vec(-3000i16..-10i16, 1..200),
    ) {
        let m = seeds.len().min(tdd_raw.len());
        let seeds = &seeds[..m];
        let mut tdd = tdd_raw[..m].to_vec();
        tdd[0] = W_NEG_INF;
        let expect = scalar_resolve(seeds, &tdd);
        prop_assert_eq!(lazy_f_resolve(seeds, &tdd).0, expect.clone());
        prop_assert_eq!(prefix_resolve(seeds, &tdd).0, expect);
    }

    #[test]
    fn pvalues_are_probabilities_and_monotone(
        s1 in -50.0f32..50.0,
        ds in 0.0f32..20.0,
        mu in -10.0f32..10.0,
    ) {
        let p1 = gumbel_pvalue(s1, mu, LAMBDA);
        let p2 = gumbel_pvalue(s1 + ds, mu, LAMBDA);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!(p2 <= p1 + 1e-12);
        let e1 = exp_pvalue(s1, mu, LAMBDA);
        let e2 = exp_pvalue(s1 + ds, mu, LAMBDA);
        prop_assert!((0.0..=1.0).contains(&e1));
        prop_assert!(e2 <= e1 + 1e-12);
    }

    #[test]
    fn imbalance_factor_is_at_least_one(
        work in prop::collection::vec(0u64..1000, 0..64),
        slots in 0usize..32,
    ) {
        let f = imbalance_factor(&work, slots);
        prop_assert!(f >= 1.0);
        prop_assert!(f.is_finite());
    }
}

proptest! {
    // Filter equalities are slower per case; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn striped_filters_equal_scalar_on_arbitrary_inputs(
        m in 1usize..70,
        seed in 0u64..1000,
        seq in residue_seq(160),
    ) {
        let model = synthetic_model(m, seed, &BuildParams::default());
        let bg = NullModel::new();
        let p = Profile::config(&model, &bg);
        let msv = MsvProfile::from_profile(&p);
        let vit = VitProfile::from_profile(&p);
        prop_assert_eq!(
            StripedMsv::new(&msv).run(&msv, &seq),
            msv_filter_scalar(&msv, &seq)
        );
        prop_assert_eq!(
            StripedVit::new(&vit).run(&vit, &seq).0,
            vit_filter_scalar(&vit, &seq)
        );
    }

    #[test]
    fn forward_dominates_viterbi_and_backward_agrees(
        m in 2usize..30,
        seed in 0u64..500,
        seq in residue_seq(80),
    ) {
        use hmmer3_warp::cpu::{backward_generic, forward_generic, viterbi_filter_model};
        let model = synthetic_model(m, seed, &BuildParams::default());
        let bg = NullModel::new();
        let p = Profile::config(&model, &bg);
        let v = viterbi_filter_model(&p, &seq);
        let f = forward_generic(&p, &seq);
        prop_assert!(v <= f + 1e-3, "viterbi {} > forward {}", v, f);
        if !seq.is_empty() {
            let b = backward_generic(&p, &seq);
            // Table-driven logsum: generous but bounded agreement.
            prop_assert!((f - b).abs() < 0.05 + 0.002 * seq.len() as f32,
                "forward {} vs backward {}", f, b);
        }
    }

}

/// Planting a model's consensus into a background sequence (same length,
/// same length model) raises the MSV score in essentially every draw.
/// This is a statistical regularity, not a theorem — substituting
/// residues is not pointwise-monotone for alignment scores — so it runs
/// over fixed seeds rather than proptest's adversarial search.
#[test]
fn planting_a_motif_raises_msv_score_statistically() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let bg = NullModel::new();
    let mut improved = 0usize;
    let mut worst_drop = 0i32;
    const TRIALS: usize = 60;
    for trial in 0..TRIALS as u64 {
        let model = synthetic_model(20, trial, &BuildParams::default());
        let p = Profile::config(&model, &bg);
        let msv = MsvProfile::from_profile(&p);
        let mut rng = StdRng::seed_from_u64(trial ^ 0xbeef);
        let len = rng.gen_range(120..260);
        let seq: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..20)).collect();
        let at = rng.gen_range(0..len - 20);
        let mut planted = seq.clone();
        planted[at..at + 20].copy_from_slice(&model.consensus);
        let a = msv_filter_scalar(&msv, &seq);
        let b = msv_filter_scalar(&msv, &planted);
        if b.overflow || b.xj >= a.xj {
            improved += 1;
        } else {
            worst_drop = worst_drop.max(a.xj as i32 - b.xj as i32);
        }
    }
    assert!(
        improved >= TRIALS - 2,
        "planting improved only {improved}/{TRIALS} (worst drop {worst_drop} bytes)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming chunker: any chunk bound yields an exact, order-preserving
    /// partition of the database.
    #[test]
    fn fasta_chunking_is_exact_partition(
        lens in prop::collection::vec(1usize..80, 1..25),
        bound in 1u64..2000,
    ) {
        use hmmer3_warp::seqdb::fasta;
        let mut db = SeqDb::new("p");
        for (i, &l) in lens.iter().enumerate() {
            db.seqs.push(DigitalSeq {
                name: format!("s{i}"),
                desc: String::new(),
                residues: (0..l).map(|j| ((i + j) % 20) as u8).collect(),
            });
        }
        let text = fasta::render(&db);
        let chunks: Vec<SeqDb> = common::fasta_chunks(&text, bound).unwrap();
        let mut idx = 0usize;
        for c in &chunks {
            for s in &c.seqs {
                prop_assert_eq!(&s.residues, &db.seqs[idx].residues);
                prop_assert_eq!(&s.name, &db.seqs[idx].name);
                idx += 1;
            }
        }
        prop_assert_eq!(idx, db.len());
    }

    /// Henikoff weights: positive, finite, mean 1 (when any column has
    /// residues).
    #[test]
    fn henikoff_weights_are_normalized(
        rows in prop::collection::vec(prop::collection::vec(0u8..21, 8..16), 2..12),
    ) {
        use hmmer3_warp::hmm::msa::{henikoff_weights, Msa};
        // Make the alignment rectangular; code 20 plays the gap role.
        let width = rows.iter().map(|r| r.len()).min().unwrap();
        let rows: Vec<Vec<u8>> = rows
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .take(width)
                    .map(|x| if x == 20 { 26 } else { x }) // '-'
                    .collect()
            })
            .collect();
        let n = rows.len();
        let msa = Msa {
            names: (0..n).map(|i| format!("r{i}")).collect(),
            rows,
            width,
        };
        let w = henikoff_weights(&msa);
        prop_assert_eq!(w.len(), n);
        for v in &w {
            prop_assert!(v.is_finite() && *v >= 0.0);
        }
        let mean: f32 = w.iter().sum::<f32>() / n as f32;
        // All-gap alignments fall back to uniform weight 1.
        prop_assert!((mean - 1.0).abs() < 1e-3, "mean {}", mean);
    }

    /// Parsers are total: truncating and byte-mutating a valid FASTA
    /// file yields `Ok` or a structured error — never a panic. The
    /// streaming chunker sees the same mutated text.
    #[test]
    fn mutated_fasta_never_panics_the_parser(
        lens in prop::collection::vec(1usize..40, 1..8),
        cut_frac in 0.0f64..=1.0,
        flips in prop::collection::vec((0usize..4096, 0u8..=255u8), 0..6),
    ) {
        use hmmer3_warp::seqdb::fasta;
        let mut db = SeqDb::new("p");
        for (i, &l) in lens.iter().enumerate() {
            db.seqs.push(DigitalSeq {
                name: format!("s{i}"),
                desc: String::new(),
                residues: (0..l).map(|j| ((i * 7 + j) % 20) as u8).collect(),
            });
        }
        let mut bytes = fasta::render(&db).into_bytes();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        bytes.truncate(cut);
        for (pos, val) in flips {
            if let Some(n) = bytes.len().checked_sub(1) {
                bytes[pos % (n + 1)] = val;
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = fasta::parse("fuzz", &text);
        let _ = common::fasta_chunks(&text, 64);
    }

    /// Same totality contract for the HMM reader: any truncation or byte
    /// mutation of a written model file parses or errors, never panics.
    #[test]
    fn mutated_hmm_never_panics_the_reader(
        m in 1usize..25,
        seed in 0u64..200,
        cut_frac in 0.0f64..=1.0,
        flips in prop::collection::vec((0usize..65536, 0u8..=255u8), 0..6),
    ) {
        use hmmer3_warp::hmm::hmmio::{read_hmm, read_hmm_many, write_hmm};
        let model = synthetic_model(m, seed, &BuildParams::default());
        let mut bytes = write_hmm(&model, None).into_bytes();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        bytes.truncate(cut);
        for (pos, val) in flips {
            if let Some(n) = bytes.len().checked_sub(1) {
                bytes[pos % (n + 1)] = val;
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = read_hmm(&text);
        let _ = read_hmm_many(&text);
    }

    /// Arbitrary bytes (not derived from any valid file) never panic the
    /// FASTA parser, the HMM reader, or the checkpoint reader.
    #[test]
    fn arbitrary_text_never_panics_any_parser(
        bytes in prop::collection::vec(0u8..=255u8, 0..200),
    ) {
        use hmmer3_warp::hmm::hmmio::read_hmm;
        use hmmer3_warp::pipeline::StreamCheckpoint;
        use hmmer3_warp::seqdb::fasta;
        let text = String::from_utf8_lossy(&bytes);
        let _ = fasta::parse("fuzz", &text);
        let _ = read_hmm(&text);
        let _ = StreamCheckpoint::from_text(&text, ["MSV", "P7Viterbi", "Forward"]);
    }

    /// Streaming generation: for any seed and chunk bound, generating in
    /// bounded chunks concatenates residue-identically to the one-shot
    /// database (the constant-memory dbgen/bench path is exact).
    #[test]
    fn chunked_generation_matches_one_shot(
        seed in 0u64..1000,
        cap in 200u64..20_000,
    ) {
        use hmmer3_warp::seqdb::gen::gen_chunks;
        let core = synthetic_model(40, 9, &BuildParams::default());
        let mut spec = DbGenSpec::swissprot_like().scaled(1e-4);
        spec.homolog_fraction = 0.1;
        let whole = generate(&spec, Some(&core), seed);
        let mut streamed: Vec<DigitalSeq> = Vec::new();
        for c in gen_chunks(&spec, Some(&core), seed, cap) {
            prop_assert!(c.total_residues() <= cap || c.len() == 1);
            streamed.extend(c.seqs);
        }
        prop_assert_eq!(streamed.len(), whole.len());
        for (a, b) in streamed.iter().zip(&whole.seqs) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.residues, &b.residues);
        }
    }

    /// hmmio round-trip for arbitrary synthetic models: name, length and
    /// consensus survive; probabilities within printed precision.
    #[test]
    fn hmm_file_round_trip(m in 1usize..50, seed in 0u64..1000) {
        use hmmer3_warp::hmm::hmmio::{read_hmm, write_hmm};
        let model = synthetic_model(m, seed, &BuildParams::default());
        let back = read_hmm(&write_hmm(&model, None)).unwrap().model;
        prop_assert_eq!(&back.name, &model.name);
        prop_assert_eq!(back.len(), m);
        prop_assert_eq!(&back.consensus, &model.consensus);
        for (a, b) in model.nodes.iter().zip(&back.nodes) {
            for (x, y) in a.mat.iter().zip(&b.mat) {
                prop_assert!((x - y).abs() < 1e-4);
            }
            prop_assert!((a.t.dd - b.t.dd).abs() < 1e-4);
        }
    }
}

/// A chunked sweep killed and checkpoint-resumed (on another pool)
/// reports the unchunked CPU sweep's hits under every execution plan: a
/// named row of the lattice's checkpointed driver (`common::lattice`).
#[test]
fn checkpoint_resumed_stream_matches_unchunked_under_every_plan() {
    use common::lattice::{check, Driver, Plan, Point};
    let pool = Plan::pool(2);
    for plan in [Plan::Cpu, Plan::K40, Plan::K40_FULL, pool] {
        let driver = Driver::Resumed {
            cap: 5_000,
            kill_after: 2,
            backend: hmmer3_warp::cpu::Backend::detect(),
            threads: 0,
        };
        check(&Point {
            m: 50,
            seed: 77,
            plan,
            driver,
            ..Point::default()
        });
    }
}

/// Where the E-value scale comes from does not show: a FASTA stream and a
/// packed-database stream that are their own database (scale counted as
/// they go) and a pinned-scale sweep killed and resumed report the
/// resident search's hit ids, score bits, E-value bits and funnel.
#[test]
fn streamed_scale_pinned_scale_and_resident_search_agree() {
    use common::lattice::{check, Driver, Point};
    let resumed = Driver::Resumed {
        cap: 1_000,
        kill_after: 5,
        backend: hmmer3_warp::cpu::Backend::detect(),
        threads: 1,
    };
    for driver in [
        Driver::Fasta { cap: 1_000 },
        Driver::Packed { cap: 1_000 },
        resumed,
    ] {
        check(&Point {
            m: 50,
            seed: 77,
            driver,
            ..Point::default()
        });
    }
}
