//! Thread-count determinism acceptance suite.
//!
//! The contract: the worker-pool size is a pure throughput knob. For
//! every execution plan — CPU baseline, simulated device, full-device,
//! and fault-tolerant multi-device sweeps with injected faults — hits,
//! funnel counters, and the rendered report must be bit-identical at 1,
//! 2, 4, and 8 threads. Checkpointed streams killed mid-sweep must
//! resume to the same output regardless of the pool size on either side
//! of the restart.
//!
//! Determinism comes from the pool's indexed-output design (`out[i]`
//! depends only on item `i`, never on which worker computed it or in
//! what order), so these tests are the canary for any future change
//! that introduces order-dependent accumulation.

mod common;

use common::{fasta_chunks, sweep_chunks};
use hmmer3_warp::pipeline::{prepare_scan, scan, scan_prepared, FamilyResult, PipelineResult};
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::{content_hash, fasta};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig::builder()
        .threads(threads)
        .build()
        .expect("thread counts under the pool ceiling validate")
}

/// Funnel counters, excluding wall time (which legitimately varies).
fn funnel(r: &PipelineResult) -> Vec<(String, usize, usize, u64)> {
    r.stages
        .iter()
        .map(|s| (s.name.clone(), s.seqs_in, s.seqs_out, s.residues_in))
        .collect()
}

/// The rendered report with wall-clock fields stripped: everything the
/// user sees except timings must be byte-identical across pool sizes.
fn timeless_render(r: &PipelineResult) -> String {
    r.render()
        .lines()
        .map(|line| match line.find("  time ") {
            Some(cut) => &line[..cut],
            None => line,
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn fixture(m: usize, model_seed: u64, db_seed: u64) -> (CoreModel, SeqDb) {
    let model = synthetic_model(m, model_seed, &BuildParams::default());
    let mut spec = DbGenSpec::envnr_like().scaled(1e-4);
    spec.homolog_fraction = 0.03;
    let db = generate(&spec, Some(&model), db_seed);
    (model, db)
}

/// Run one plan at every thread count and demand bit-identical output.
/// `run` is a closure (capturing the database and plan inputs) because
/// fault injectors carry per-run mutable state and must be rebuilt for
/// each search.
fn assert_plan_is_thread_invariant(
    model: &CoreModel,
    label: &str,
    run: &dyn Fn(&Pipeline) -> PipelineResult,
) {
    let baseline = run(&Pipeline::prepare(model, config(1), 0x5_eac4));
    for t in &THREAD_COUNTS[1..] {
        let got = run(&Pipeline::prepare(model, config(*t), 0x5_eac4));
        assert_eq!(
            got.hits, baseline.hits,
            "{label}: hits differ at {t} threads"
        );
        assert_eq!(
            funnel(&got),
            funnel(&baseline),
            "{label}: funnel differs at {t} threads"
        );
        assert_eq!(
            timeless_render(&got),
            timeless_render(&baseline),
            "{label}: report differs at {t} threads"
        );
    }
}

proptest! {
    // Each case runs 4 plans × 4 thread counts over a generated
    // database, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every `ExecPlan` yields identical hits, funnels, and reports at
    /// 1/2/4/8 threads, on arbitrary models and databases.
    #[test]
    fn every_exec_plan_is_bit_identical_across_thread_counts(
        m in 24usize..80,
        model_seed in 1u64..500,
        db_seed in 1u64..500,
    ) {
        let (model, db) = fixture(m, model_seed, db_seed);
        let dev = DeviceSpec::tesla_k40();

        assert_plan_is_thread_invariant(&model, "cpu", &|pipe| {
            pipe.search(&db, &ExecPlan::Cpu).expect("cpu plan cannot fail")
        });
        assert_plan_is_thread_invariant(&model, "device", &|pipe| {
            pipe.search(&db, &ExecPlan::Device { dev: dev.clone() }).unwrap()
        });
        assert_plan_is_thread_invariant(&model, "device-full", &|pipe| {
            pipe.search(&db, &ExecPlan::DeviceFull { dev: dev.clone() }).unwrap()
        });
        // Fault-tolerant sweep with a device killed mid-sweep: recovery
        // (redistribution to survivors) must also be thread-invariant.
        assert_plan_is_thread_invariant(&model, "fault-tolerant", &|pipe| {
            let inj = FaultInjector::new(FaultPlan::none().kill_device(1, 0), 3);
            let plan = ExecPlan::FaultTolerant {
                dev: dev.clone(),
                sweep: FtSweep {
                    n_devices: 3,
                    policy: RetryPolicy::no_wait(),
                    injector: Some(&inj),
                },
            };
            pipe.search(&db, &plan).unwrap()
        });
    }
}

#[test]
fn checkpoint_resume_mid_sweep_is_bit_identical_across_thread_counts() {
    let (model, db) = fixture(60, 17, 23);
    let text = fasta::render(&db);
    let chunks: Vec<SeqDb> = fasta_chunks(&text, 9_000).unwrap();
    assert!(
        chunks.len() >= 3,
        "need several chunks, got {}",
        chunks.len()
    );

    // Uninterrupted single-thread stream is the reference.
    let base_pipe = Pipeline::prepare(&model, config(1), 0x5_eac4);
    let dir = std::env::temp_dir().join(format!("h3w-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ref_ckpt = dir.join("ref.ckpt");
    let _ = std::fs::remove_file(&ref_ckpt);
    let baseline = sweep_chunks(
        &base_pipe,
        chunks.clone(),
        db.len(),
        &ExecPlan::Cpu,
        Some((&ref_ckpt, content_hash(&db))),
    )
    .unwrap();

    for t in &THREAD_COUNTS[1..] {
        // Kill after one chunk, then resume with a *different* pool size
        // than the pre-kill run — the checkpoint must not care.
        let ckpt = dir.join(format!("resume-{t}.ckpt"));
        let _ = std::fs::remove_file(&ckpt);
        let pre_kill = Pipeline::prepare(&model, config(1), 0x5_eac4);
        let prefix: Vec<SeqDb> = chunks.iter().take(1).cloned().collect();
        sweep_chunks(
            &pre_kill,
            prefix,
            db.len(),
            &ExecPlan::Cpu,
            Some((&ckpt, content_hash(&db))),
        )
        .unwrap();
        assert_eq!(StreamCheckpoint::load(&ckpt).unwrap().chunks_done, 1);

        let resumed_pipe = Pipeline::prepare(&model, config(*t), 0x5_eac4);
        let resumed = sweep_chunks(
            &resumed_pipe,
            chunks.clone(),
            db.len(),
            &ExecPlan::Cpu,
            Some((&ckpt, content_hash(&db))),
        )
        .unwrap();
        assert_eq!(resumed.hits, baseline.hits, "hits differ at {t} threads");
        assert_eq!(
            funnel(&resumed),
            funnel(&baseline),
            "funnel differs at {t} threads"
        );
        assert_eq!(timeless_render(&resumed), timeless_render(&baseline));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one-shot fused scan (seed 7), per family.
fn fused_scan(families: &[CoreModel], db: &SeqDb, config: PipelineConfig) -> Vec<FamilyResult> {
    scan(families, db, config, 7, &Pipeline::env_trace())
        .unwrap()
        .results
}

#[test]
fn multi_model_scan_is_bit_identical_across_thread_counts() {
    let families: Vec<CoreModel> = (0..3)
        .map(|i| synthetic_model(40 + 8 * i, 300 + i as u64, &BuildParams::default()))
        .collect();
    let db = generate(
        &DbGenSpec::envnr_like().scaled(1e-4),
        Some(&families[0]),
        41,
    );

    let baseline = fused_scan(&families, &db, config(1));
    for t in &THREAD_COUNTS[1..] {
        let got = fused_scan(&families, &db, config(*t));
        assert_eq!(got.len(), baseline.len());
        for (g, b) in got.iter().zip(&baseline) {
            assert_eq!(g.family, b.family);
            assert_eq!(g.hits, b.hits, "family {} differs at {t} threads", g.family);
            assert_eq!(g.passed, b.passed);
        }
    }
}

#[test]
fn fused_scan_matches_independent_sweeps_at_every_thread_count() {
    // The fused multi-profile sweep shares one database traversal across
    // all resident models; fusing, the pack width schedule, and the pool
    // size must all be invisible in the output. Mixed model sizes force
    // several stripe-count packs; equal sizes exercise full-width packs.
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

    let pipes = prepare_scan(&families, config(1), 7);
    let baseline = scan_prepared(&pipes, &db, config(1), false, &Trace::off()).unwrap();
    for t in &THREAD_COUNTS {
        let fused = fused_scan(&families, &db, config(*t));
        assert_eq!(fused.len(), baseline.len());
        for (g, b) in fused.iter().zip(&baseline) {
            assert_eq!(g.family, b.family);
            assert_eq!(
                g.hits, b.hits,
                "family {}: fused hits differ at {t} threads",
                g.family
            );
            assert_eq!(g.passed, b.passed, "family {} funnel differs", g.family);
            for (gs, bs) in g.stages.iter().zip(&b.stages) {
                assert_eq!(
                    (&gs.name, gs.seqs_in, gs.seqs_out, gs.residues_in),
                    (&bs.name, bs.seqs_in, bs.seqs_out, bs.residues_in),
                    "family {} stage funnel differs at {t} threads",
                    g.family
                );
            }
        }
    }
}

#[test]
fn h3w_threads_env_and_config_agree_on_output() {
    // `threads: 0` routes through the global pool (whose width the
    // H3W_THREADS env decides at first touch); an explicit width uses a
    // dedicated pool. Both must report the same hits.
    let (model, db) = fixture(48, 5, 13);
    let via_global = Pipeline::prepare(&model, config(0), 0x5_eac4)
        .search(&db, &ExecPlan::Cpu)
        .unwrap();
    let via_owned = Pipeline::prepare(&model, config(3), 0x5_eac4)
        .search(&db, &ExecPlan::Cpu)
        .unwrap();
    assert_eq!(via_global.hits, via_owned.hits);
    assert_eq!(funnel(&via_global), funnel(&via_owned));
}
