//! Host MSV and Viterbi outcomes and Lazy-F effort pinned by bits.
//!
//! The constants below were recorded at 6f0c3fe, where each SIMD backend
//! still had its own MSV and Viterbi row loop. Cross-backend equality
//! cannot see a change made to every backend at once, and no reference
//! counts Lazy-F walks, so this is where both are checked: every
//! available backend must reproduce the outcome bits, and the Lazy-F
//! counters of its lane width (8 for scalar and SSE2, 16 for AVX2).

use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::striped_vit::StripedVit;
use h3w_cpu::{Backend, LazyFStats};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::plan7::CoreModel;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_seqdb::gen::sample_homolog;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 9] = [1, 8, 9, 16, 17, 40, 48, 400, 2405];
const CASES: [&str; 3] = ["random", "homolog", "d_heavy"];

/// `(M, case, [msv xj, msv overflow, msv score bits, vit xc, vit score
/// bits], Lazy-F [rows, total_passes, rows_extra, max_passes] at [8, 16]
/// lanes)`, in `SIZES` × `CASES` order.
type Pin = (usize, &'static str, [u32; 5], [[u64; 4]; 2]);

#[rustfmt::skip]
const PINNED: [Pin; 27] = [
    (1, "random", [0xb2, 0x0, 0xc0ec681d, 0x1f28, 0xc12318dc], [[300, 600, 300, 2], [300, 600, 300, 2]]),
    (1, "homolog", [0xb7, 0x0, 0xc0a586b1, 0x2208, 0xc101d0d5], [[102, 204, 102, 2], [102, 204, 102, 2]]),
    (1, "d_heavy", [0xb8, 0x0, 0xc0884152, 0x22cc, 0xc0e50f2c], [[50, 100, 50, 2], [50, 100, 50, 2]]),
    (8, "random", [0xb0, 0x0, 0xc0fb31a0, 0x2291, 0xc10fbbbc], [[300, 983, 300, 6], [300, 1020, 300, 6]]),
    (8, "homolog", [0xc9, 0x0, 0xbf22f298, 0x32db, 0xbfe1f948], [[69, 233, 69, 6], [69, 244, 69, 6]]),
    (8, "d_heavy", [0xb0, 0x0, 0xc0cbd886, 0x22e0, 0xc0ec9d35], [[66, 400, 66, 8], [66, 446, 66, 9]]),
    (9, "random", [0xaf, 0x0, 0xc1014b30, 0x229f, 0xc10f6c3e], [[300, 709, 300, 4], [300, 1017, 300, 7]]),
    (9, "homolog", [0xc5, 0x0, 0xbf9e1de9, 0x366d, 0xbe311310], [[49, 126, 49, 4], [49, 189, 49, 7]]),
    (9, "d_heavy", [0xb1, 0x0, 0xc0c382d0, 0x1e10, 0xc11129be], [[64, 324, 64, 6], [64, 540, 64, 10]]),
    (16, "random", [0xad, 0x0, 0xc108aff1, 0x21fb, 0xc1130f7a], [[300, 797, 300, 4], [300, 1287, 300, 8]]),
    (16, "homolog", [0xcf, 0x0, 0x3fe2594c, 0x3c86, 0x402bca65], [[23, 74, 23, 5], [23, 124, 23, 9]]),
    (16, "d_heavy", [0xaf, 0x0, 0xc0ce3aaa, 0x233c, 0xc0e385cb], [[56, 358, 56, 8], [56, 650, 56, 16]]),
    (17, "random", [0xab, 0x0, 0xc11014b2, 0x2257, 0xc1110513], [[300, 655, 300, 4], [300, 800, 300, 5]]),
    (17, "homolog", [0xff, 0x1, 0x7f800000, 0x60aa, 0x416b0d72], [[56, 135, 56, 4], [56, 172, 56, 6]]),
    (17, "d_heavy", [0xb7, 0x0, 0xc0a6b8f8, 0x25ac, 0xc0db7ba8], [[106, 582, 106, 7], [106, 811, 106, 10]]),
    (40, "random", [0xac, 0x0, 0xc10c6252, 0x2262, 0xc110c69d], [[300, 608, 300, 3], [300, 726, 300, 4]]),
    (40, "homolog", [0xff, 0x1, 0x7f800000, 0x7fff, 0x7f800000], [[26, 64, 26, 3], [26, 88, 26, 5]]),
    (40, "d_heavy", [0xae, 0x0, 0xc0cfae06, 0x219a, 0xc0f01f6c], [[46, 301, 46, 8], [46, 457, 46, 14]]),
    (48, "random", [0xaa, 0x0, 0xc113c712, 0x209b, 0xc11ade39], [[300, 601, 300, 3], [300, 778, 300, 4]]),
    (48, "homolog", [0xff, 0x1, 0x7f800000, 0x7fff, 0x7f800000], [[41, 90, 41, 3], [41, 136, 41, 5]]),
    (48, "d_heavy", [0xac, 0x0, 0xc0e229d0, 0x1e9b, 0xc10aec14], [[52, 350, 52, 8], [52, 659, 52, 16]]),
    (400, "random", [0xa3, 0x0, 0xc12da7b6, 0x24a4, 0xc103f494], [[300, 600, 300, 2], [300, 600, 300, 2]]),
    (400, "homolog", [0xff, 0x1, 0x7f800000, 0x7fff, 0x7f800000], [[124, 248, 124, 2], [124, 248, 124, 2]]),
    (400, "d_heavy", [0xbc, 0x0, 0xc07fe2c0, 0x261d, 0xc0d4a88c], [[100, 712, 100, 8], [100, 1350, 100, 16]]),
    (2405, "random", [0x9b, 0x0, 0xc14b3aba, 0x2523, 0xc1012370], [[300, 600, 300, 2], [300, 600, 300, 2]]),
    (2405, "homolog", [0xff, 0x1, 0x7f800000, 0x7fff, 0x7f800000], [[92, 184, 92, 2], [92, 184, 92, 2]]),
    (2405, "d_heavy", [0xac, 0x0, 0xc0f4f8f6, 0x22f7, 0xc0f7256e], [[96, 505, 96, 8], [96, 940, 96, 16]]),
];

/// The D-heavy model of `backend_equivalence.rs`: D→D at ≈ 0 nats and a
/// generous M→D, so a delete chain never decays and Lazy-F runs its
/// whole pass budget.
fn d_heavy(m: usize) -> CoreModel {
    let mut core = synthetic_model(m, 77, &BuildParams::gappy());
    for node in &mut core.nodes {
        (node.t.mm, node.t.mi, node.t.md) = (0.55, 0.05, 0.40);
        (node.t.dm, node.t.dd) = (0.001, 0.999);
    }
    core
}

/// The three `(model, sequence)` cases at model length `m`.
fn cases(m: usize) -> [(CoreModel, Vec<u8>); 3] {
    let mut rng = StdRng::seed_from_u64(0x91_0000 + m as u64);
    let core = synthetic_model(m, m as u64, &BuildParams::default());
    let random = random_seq(&mut rng, 300);
    let homolog = sample_homolog(&mut rng, &core, 20);
    let heavy = d_heavy(m);
    let hom = sample_homolog(&mut rng, &heavy, 4);
    let chained = [&hom[..], &random[..40], &hom[..]].concat();
    [(core.clone(), random), (core, homolog), (heavy, chained)]
}

fn lazyf(s: LazyFStats) -> [u64; 4] {
    [s.rows, s.total_passes, s.rows_extra, s.max_passes as u64]
}

#[test]
fn filter_outcomes_and_lazyf_effort_are_pinned_per_lane_width() {
    let bg = NullModel::new();
    let mut now = String::new();
    let mut moved = Vec::new();
    for (mi, m) in SIZES.into_iter().enumerate() {
        for (ci, (case, (core, seq))) in CASES.iter().zip(cases(m)).enumerate() {
            let want = PINNED[mi * CASES.len() + ci];
            let p = Profile::config(&core, &bg);
            let (msv, vit) = (MsvProfile::from_profile(&p), VitProfile::from_profile(&p));
            // Each lane width's counters from its first available backend;
            // every other backend must match what it reports.
            let mut got = (m, *case, [0u32; 5], [[0u64; 4]; 2]);
            let mut seen = [false; 2];
            for backend in Backend::all_available() {
                let mo = StripedMsv::with_backend(&msv, backend).run(&msv, &seq);
                let (vo, st) = StripedVit::with_backend(&vit, backend).run(&vit, &seq);
                let outcome = [
                    mo.xj as u32,
                    mo.overflow as u32,
                    mo.score.to_bits(),
                    vo.xc as u16 as u32,
                    vo.score.to_bits(),
                ];
                let w = (backend == Backend::Avx2) as usize;
                if backend == Backend::Scalar {
                    got.2 = outcome;
                }
                if !seen[w] {
                    got.3[w] = lazyf(st);
                    seen[w] = true;
                }
                if outcome != want.2 || lazyf(st) != want.3[w] || (m, *case) != (want.0, want.1) {
                    moved.push(format!("{backend} M={m} {case}"));
                }
            }
            now += &format!(
                "    ({m}, {case:?}, [{}], [{:?}, {:?}]),\n",
                got.2.map(|x| format!("{x:#x}")).join(", "),
                got.3[0],
                got.3[1]
            );
        }
    }
    assert!(
        moved.is_empty(),
        "moved off the pinned bits: {moved:?}; now (16-lane column is \
         zero without AVX2):\n{now}"
    );
}
