//! Batch-width equivalence acceptance suite.
//!
//! The contract: `PipelineConfig::batch` is a pure throughput knob,
//! exactly like the worker-pool size. Width 1 scores one sequence per
//! fused loop; wider settings interleave more independent (model,
//! sequence) slots in the same loop (`h3w_cpu::batch`) and nothing else.
//! Hits, funnel counters, and the rendered report must be bit-identical
//! across widths {auto, 1, 2, 3, 4}, on every SIMD backend (scalar /
//! SSE2 / AVX2, wherever runnable) and at 1 and 4 worker threads, for
//! both the single-model pipeline and the fused multi-model scan, whose
//! model packs split the same width between models and sequences.
//!
//! Determinism comes from the same design as thread invariance: slots
//! never exchange data, and every result is written to the position its
//! sequence had in the input.

use hmmer3_warp::cpu::{Backend, MAX_BATCH};
use hmmer3_warp::pipeline::{
    scan_prepared, ConfigError, FamilyResult, Pipeline, PipelineResult, Trace,
};
use hmmer3_warp::prelude::*;
use proptest::prelude::*;

/// `0` is auto: the backend's preferred width.
const WIDTHS: [usize; 5] = [0, 1, 2, 3, 4];
const THREADS: [usize; 2] = [1, 4];

fn config(batch: usize, threads: usize) -> PipelineConfig {
    PipelineConfig::builder()
        .batch(batch)
        .threads(threads)
        .build()
        .expect("widths 0..=4 and small pools validate")
}

/// Funnel counters, excluding wall time (which legitimately varies).
fn funnel(r: &PipelineResult) -> Vec<(String, usize, usize, u64)> {
    r.stages
        .iter()
        .map(|s| (s.name.clone(), s.seqs_in, s.seqs_out, s.residues_in))
        .collect()
}

fn fixture(m: usize, model_seed: u64, db_seed: u64) -> (CoreModel, SeqDb) {
    let model = synthetic_model(m, model_seed, &BuildParams::default());
    let mut spec = DbGenSpec::envnr_like().scaled(1e-4);
    spec.homolog_fraction = 0.03;
    let db = generate(&spec, Some(&model), db_seed);
    (model, db)
}

proptest! {
    // Each case runs |backends| × 5 widths × 2 thread counts full
    // pipeline searches, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// `Pipeline::search` yields identical hits and funnels at every
    /// batch width, on every runnable backend and at 1 and 4 threads,
    /// over arbitrary models and databases.
    #[test]
    fn search_is_bit_identical_across_batch_widths(
        m in 24usize..80,
        model_seed in 1u64..500,
        db_seed in 1u64..500,
    ) {
        let (model, db) = fixture(m, model_seed, db_seed);
        for backend in Backend::all_available() {
            // Width-1 single-thread is the reference for this backend.
            let baseline = Pipeline::prepare_with_backend(&model, config(1, 1), 0x5_eac4, backend)
                .search(&db, &ExecPlan::Cpu)
                .expect("cpu plan cannot fail");
            for batch in WIDTHS {
                for threads in THREADS {
                    let cfg = config(batch, threads);
                    let got = Pipeline::prepare_with_backend(&model, cfg, 0x5_eac4, backend)
                        .search(&db, &ExecPlan::Cpu)
                        .expect("cpu plan cannot fail");
                    prop_assert_eq!(
                        &got.hits, &baseline.hits,
                        "{} batch {} threads {}: hits diverged",
                        backend, batch, threads
                    );
                    prop_assert_eq!(
                        funnel(&got), funnel(&baseline),
                        "{} batch {} threads {}: funnel diverged",
                        backend, batch, threads
                    );
                }
            }
        }
    }
}

#[test]
fn auto_width_matches_every_explicit_width() {
    // `batch: 0` (the default) resolves to the backend's preferred
    // width; it must land on the same hits as every explicit setting.
    let (model, db) = fixture(48, 11, 29);
    for backend in Backend::all_available() {
        for threads in THREADS {
            let search = |batch: usize| {
                Pipeline::prepare_with_backend(&model, config(batch, threads), 0x5_eac4, backend)
                    .search(&db, &ExecPlan::Cpu)
                    .unwrap()
            };
            let auto = search(0);
            assert!(!auto.hits.is_empty(), "fixture should produce hits");
            for batch in 1..=MAX_BATCH {
                let got = search(batch);
                assert_eq!(
                    got.hits, auto.hits,
                    "{backend} threads {threads}: batch {batch} diverged from auto"
                );
                assert_eq!(funnel(&got), funnel(&auto));
            }
        }
    }
}

#[test]
fn fused_scan_is_bit_identical_across_batch_widths() {
    // The fused multi-model sweep splits the width between the members
    // of a model pack and the sequences they share
    // (`msv_multi_outcomes`), so every width changes the pack shapes;
    // hits and per-family funnels must not move. Mixed model sizes force
    // several stripe-count packs.
    let families: Vec<CoreModel> = [33usize, 40, 40, 48, 70, 70, 100]
        .iter()
        .enumerate()
        .map(|(i, &m)| synthetic_model(m, 800 + i as u64, &BuildParams::default()))
        .collect();
    let db = generate(
        &DbGenSpec::envnr_like().scaled(1e-4),
        Some(&families[1]),
        43,
    );
    for backend in Backend::all_available() {
        // One calibration per backend serves every width: the suite
        // above is what shows a calibration does not depend on it.
        let pipes: Vec<Pipeline> = families
            .iter()
            .enumerate()
            .map(|(qi, model)| {
                let seed = 7 ^ ((qi as u64) << 17);
                Pipeline::prepare_with_backend(model, PipelineConfig::default(), seed, backend)
            })
            .collect();
        let scan = |batch: usize, threads: usize| -> Vec<FamilyResult> {
            scan_prepared(&pipes, &db, config(batch, threads), true, &Trace::off()).unwrap()
        };
        let baseline = scan(1, 1);
        for batch in WIDTHS {
            for threads in THREADS {
                let got = scan(batch, threads);
                assert_eq!(got.len(), baseline.len());
                for (g, b) in got.iter().zip(&baseline) {
                    assert_eq!(
                        g.hits, b.hits,
                        "{backend} family {}: hits diverged at batch {batch}, {threads} threads",
                        g.family
                    );
                    assert_eq!(
                        g.passed, b.passed,
                        "{backend} family {}: funnel diverged at batch {batch}, {threads} threads",
                        g.family
                    );
                }
            }
        }
    }
}

#[test]
fn width_beyond_kernel_maximum_is_rejected() {
    let err = PipelineConfig::builder()
        .batch(MAX_BATCH + 1)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ConfigError::BatchTooWide {
            requested: MAX_BATCH + 1,
            max: MAX_BATCH
        }
    );
}
