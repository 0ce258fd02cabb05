//! Per-backend filter-path throughput — the evidence for the SIMD
//! dispatch layer (BENCH_throughput.json).
//!
//! Sweeps an Env_nr-like workload four ways for every SIMD backend the
//! host supports:
//!   * tight striped-filter loops (MSV / P7Viterbi residues per second),
//!   * the full `Pipeline::search` funnel (per-stage residues/sec),
//!   * one `Pipeline::search` sweep on the modeled device for reference,
//!   * a pool scaling curve: each stage sweep on dedicated 1..N-worker
//!     pools (Gcells/s and speedup over one worker, `scaling_curve`),
//!   * the calibration shape (`calibration_shape`): the striped Forward
//!     on 500 background sequences of L = 100 and one `Pipeline::prepare`
//!     split into sample / msv / vit / fwd, at the paper's eight model
//!     sizes (M = 48 … 2405).
//!
//! Every row records the active worker count (`workers`): 1 for the
//! deliberately single-threaded kernel loops, the pipeline pool width
//! for funnel rows, and the curve's own pool width for scaling rows.
//!
//! Every measured loop is recorded into an `h3w-trace` telemetry tree
//! via `record_sweep` / `search_traced`, and the JSON rows are emitted
//! from that tree — the bench carries no ad-hoc stopwatch structs of its
//! own. The full telemetry tree ships in the output under `telemetry`.
//!
//! Usage: `cargo run --release -p h3w-bench --bin throughput`

use h3w_bench::json::Json;
use h3w_cpu::h3w_pool::configured_threads;
use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::striped_vit::{StripedVit, VitWorkspace};
use h3w_cpu::sweep::{
    fwd_sweep_batched, measure_batched, measure_fwd_generic, msv_sweep_batched, record_sweep,
    vit_sweep, SweepTiming,
};
use h3w_cpu::{outcomes_batched, Backend, FwdBatchWorkspace, StripedFwd, ThreadPool, MAX_BATCH};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_pipeline::{ExecPlan, Pipeline, PipelineConfig, StageStats};
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_seqdb::{DigitalSeq, SeqDb};
use h3w_simt::DeviceSpec;
use h3w_trace::{Telemetry, Trace};
use std::time::Instant;

const MODEL_M: usize = 400;
const MIN_MEASURE_S: f64 = 0.25;

/// Time `f` over enough repetitions to cover [`MIN_MEASURE_S`]; returns
/// best-rep seconds (min over reps, the usual microbench estimator).
fn time_best<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up rep (touches tables, faults pages).
    f();
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    while spent < MIN_MEASURE_S {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
    }
    best
}

/// Repetitions of every `calibration_shape` arm.
const CALIBRATION_REPS: usize = 7;

/// Time `f` [`CALIBRATION_REPS`] times after [`MIN_MEASURE_S`] of
/// warm-up (an arm is 10–80 ms, and a second core that sat idle through
/// the single-thread sections before it takes a few hundred ms of pooled
/// work to give its full share); returns the sorted per-repetition
/// milliseconds.
fn time_reps_ms<F: FnMut()>(mut f: F) -> Vec<f64> {
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < MIN_MEASURE_S {
        f();
    }
    let mut ms: Vec<f64> = (0..CALIBRATION_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Median and spread of a sorted sample of milliseconds.
fn spread(sorted_ms: &[f64]) -> Vec<(&'static str, Json)> {
    let at = |i: usize| Json::Num(sorted_ms[i]);
    vec![
        ("median_ms", at(sorted_ms.len() / 2)),
        ("min_ms", at(0)),
        ("max_ms", at(sorted_ms.len() - 1)),
    ]
}

/// A bench-local [`SweepTiming`] for loops timed with [`time_best`].
fn timing_of(seconds: f64, real_cells: u64, padded_cells: u64) -> SweepTiming {
    SweepTiming {
        seconds,
        real_cells,
        padded_cells,
        cells_per_sec: if seconds > 0.0 {
            real_cells as f64 / seconds
        } else {
            0.0
        },
    }
}

/// Read one recorded sweep back out of the telemetry tree: seconds and
/// the real-cell counter (the headline denominators every row derives
/// from).
fn sweep_at(tel: &Telemetry, path: &str) -> (f64, f64) {
    let node = tel
        .at_path(path)
        .unwrap_or_else(|| panic!("telemetry path {path} missing"));
    (node.seconds, node.counter("real_cells") as f64)
}

fn filter_rows(
    msv: &MsvProfile,
    vit: &VitProfile,
    db: &SeqDb,
    trace: &Trace,
) -> (Vec<Json>, Vec<(Backend, f64)>) {
    let residues = db.total_residues() as f64;
    let res = db.total_residues();
    let mut rows = Vec::new();
    let mut msv_rps = Vec::new();
    for backend in Backend::all_available() {
        let smsv = StripedMsv::with_backend(msv, backend);
        let svit = StripedVit::with_backend(vit, backend);
        let mut dp = Vec::new();
        let msv_s = time_best(|| {
            for seq in &db.seqs {
                std::hint::black_box(smsv.run_into(msv, &seq.residues, &mut dp).score);
            }
        });
        let mut ws = VitWorkspace::default();
        let vit_s = time_best(|| {
            for seq in &db.seqs {
                std::hint::black_box(svit.run_into(vit, &seq.residues, &mut ws).0.score);
            }
        });
        record_sweep(
            trace,
            &format!("bench/filters/{backend}/msv"),
            &timing_of(
                msv_s,
                smsv.real_cells_per_row() as u64 * res,
                smsv.padded_cells_per_row() as u64 * res,
            ),
        );
        record_sweep(
            trace,
            &format!("bench/filters/{backend}/vit"),
            &timing_of(
                vit_s,
                svit.real_cells_per_row() as u64 * res,
                svit.padded_cells_per_row() as u64 * res,
            ),
        );
        msv_rps.push((backend, residues / msv_s));
        rows.push(Json::Obj(vec![
            ("backend", Json::Str(backend.name().into())),
            ("workers", Json::Num(1.0)),
            ("msv_time_s", Json::Num(msv_s)),
            ("msv_residues_per_sec", Json::Num(residues / msv_s)),
            ("vit_time_s", Json::Num(vit_s)),
            ("vit_residues_per_sec", Json::Num(residues / vit_s)),
        ]));
    }
    (rows, msv_rps)
}

/// The batched interleaved MSV kernel at widths 1 to 4 on every backend:
/// real-cell throughput plus, per backend, the speedup of the best batched
/// MSV width over the *single-sequence* striped sweep (`single_msv_rps` is
/// the `filter_loops` measurement, residues/s). This is the evidence for
/// the batching tentpole — the AVX2 ratio is the ≥ 1.5× acceptance bar.
/// The best-of-5 timing per (backend, width) is recorded into the trace
/// and the rows below are read back from the snapshot.
fn batched_rows(
    msv: &MsvProfile,
    db: &SeqDb,
    single_msv_rps: &[(Backend, f64)],
    trace: &Trace,
) -> Json {
    let m = msv.m as f64;
    for backend in Backend::all_available() {
        let smsv = StripedMsv::with_backend(msv, backend);
        let kernel = (&smsv, msv);
        for width in [1usize, 2, 3, 4] {
            // Warm-up pass, then best of 5 (same estimator as time_best).
            measure_batched(&kernel, db, db.len(), width);
            let mut best_m = measure_batched(&kernel, db, db.len(), width);
            for _ in 0..4 {
                let t = measure_batched(&kernel, db, db.len(), width);
                if t.seconds < best_m.seconds {
                    best_m = t;
                }
            }
            record_sweep(
                trace,
                &format!("bench/batched/{backend}/msv_w{width}"),
                &best_m,
            );
        }
    }
    let tel = trace.snapshot().expect("bench trace is on");
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for backend in Backend::all_available() {
        let mut best_msv = 0.0f64;
        for width in [1usize, 2, 3, 4] {
            let (msv_s, msv_cells) =
                sweep_at(&tel, &format!("bench/batched/{backend}/msv_w{width}"));
            let msv_cps = msv_cells / msv_s;
            best_msv = best_msv.max(msv_cps);
            rows.push(Json::Obj(vec![
                ("backend", Json::Str(backend.name().into())),
                ("width", Json::Num(width as f64)),
                ("workers", Json::Num(1.0)),
                ("msv_cells_per_sec", Json::Num(msv_cps)),
                ("msv_residues_per_sec", Json::Num(msv_cps / m)),
            ]));
        }
        let single = single_msv_rps
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|&(_, r)| r * m)
            .unwrap_or(f64::NAN);
        speedups.push(Json::Obj(vec![
            ("backend", Json::Str(backend.name().into())),
            ("batched_msv_cells_per_sec", Json::Num(best_msv)),
            ("single_msv_cells_per_sec", Json::Num(single)),
            ("batched_over_single", Json::Num(best_msv / single)),
        ]));
    }
    Json::Obj(vec![
        ("rows", Json::Arr(rows)),
        ("msv_batched_speedup", Json::Arr(speedups)),
    ])
}

/// Stage-3 Forward loops: the generic log-space reference (single
/// thread, capped workload — it is orders of magnitude slower) against
/// the striped odds-space filter at widths 1 and 4 on every backend.
/// `speedup_vs_generic` on the widest backend is the tentpole's ≥ 10×
/// acceptance bar; all rates are real cells/s (`3·M·L`, no phantoms).
fn forward_rows(profile: &Profile, db: &SeqDb, trace: &Trace) -> Json {
    // ~50 sequences keeps the generic reference's measurement near the
    // MIN_MEASURE_S budget at M=400.
    let generic_cap = 50.min(db.len());
    measure_fwd_generic(profile, db, generic_cap); // warm-up
    let mut best_g = measure_fwd_generic(profile, db, generic_cap);
    for _ in 0..2 {
        let t = measure_fwd_generic(profile, db, generic_cap);
        if t.seconds < best_g.seconds {
            best_g = t;
        }
    }
    record_sweep(trace, "bench/forward/generic", &best_g);
    for backend in Backend::all_available() {
        let f = StripedFwd::with_backend(profile, backend);
        let kernel = (&f, profile);
        for width in [1usize, 4] {
            measure_batched(&kernel, db, db.len(), width); // warm-up
            let mut best = measure_batched(&kernel, db, db.len(), width);
            for _ in 0..4 {
                let t = measure_batched(&kernel, db, db.len(), width);
                if t.seconds < best.seconds {
                    best = t;
                }
            }
            record_sweep(trace, &format!("bench/forward/{backend}/w{width}"), &best);
        }
    }
    let tel = trace.snapshot().expect("bench trace is on");
    let (g_s, g_cells) = sweep_at(&tel, "bench/forward/generic");
    let generic_cps = g_cells / g_s;
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for backend in Backend::all_available() {
        let mut best = 0.0f64;
        for width in [1usize, 4] {
            let (s, cells) = sweep_at(&tel, &format!("bench/forward/{backend}/w{width}"));
            let cps = cells / s;
            best = best.max(cps);
            rows.push(Json::Obj(vec![
                ("backend", Json::Str(backend.name().into())),
                ("width", Json::Num(width as f64)),
                ("workers", Json::Num(1.0)),
                ("fwd_cells_per_sec", Json::Num(cps)),
            ]));
        }
        speedups.push(Json::Obj(vec![
            ("backend", Json::Str(backend.name().into())),
            ("striped_fwd_cells_per_sec", Json::Num(best)),
            ("generic_fwd_cells_per_sec", Json::Num(generic_cps)),
            ("speedup_vs_generic", Json::Num(best / generic_cps)),
        ]));
    }
    Json::Obj(vec![
        ("generic_cells_per_sec", Json::Num(generic_cps)),
        ("rows", Json::Arr(rows)),
        ("fwd_speedup", Json::Arr(speedups)),
    ])
}

/// The calibration shape: what every `Pipeline::prepare` scores (500
/// background sequences of L = 100). Short rows of O(1) odds are where
/// the striped Forward's D→D increments reach the subnormal range, which
/// the long / homolog-rich `forward_loops` input never shows. Per M:
/// the single-thread Forward kernel on every backend at the width the
/// sweep gives it, and one `prepare`
/// on the detected backend and the shared pool, whole and split into the
/// sample draw and the three sweeps it runs (timed here through the same
/// public sweeps on the pipeline's own pool; `other_ms` is the rest:
/// profile configuration, striping, the `null1` table, the fits).
fn calibration_rows() -> Json {
    const SEED: u64 = 0x5_eac4;
    let (n, len) = (calibrate::DEFAULT_N, calibrate::DEFAULT_LEN);
    let draw = || -> Vec<DigitalSeq> {
        calibrate::sample(SEED, n, len)
            .into_iter()
            .map(|residues| DigitalSeq {
                residues,
                ..Default::default()
            })
            .collect()
    };
    let sample = draw();
    let refs: Vec<&[u8]> = sample.iter().map(|s| s.residues.as_slice()).collect();
    let mut rows = Vec::new();
    for m in [48usize, 100, 200, 400, 800, 1002, 1528, 2405] {
        let core = synthetic_model(m, 7, &BuildParams::default());
        let pipe = Pipeline::prepare(&core, PipelineConfig::default(), SEED);
        let cells = (3 * m * len * n) as f64;
        let kernel: Vec<Json> = Backend::all_available()
            .into_iter()
            .map(|backend| {
                let f = StripedFwd::with_backend(&pipe.profile, backend);
                let width = backend.preferred_batch_width();
                let mut ws = FwdBatchWorkspace::default();
                let mut out = [0.0f32; MAX_BATCH];
                let ms = time_reps_ms(|| {
                    for batch in refs.chunks(width) {
                        f.run_batch_into(&pipe.profile, batch, &mut ws, &mut out[..batch.len()]);
                        std::hint::black_box(&out);
                    }
                });
                let mut row = vec![
                    ("backend", Json::Str(backend.name().into())),
                    ("width", Json::Num(width as f64)),
                ];
                row.extend(spread(&ms));
                let median_s = ms[CALIBRATION_REPS / 2] * 1e-3;
                row.push(("fwd_cells_per_sec", Json::Num(cells / median_s)));
                Json::Obj(row)
            })
            .collect();
        let pool = pipe.pool();
        let total = time_reps_ms(|| {
            std::hint::black_box(Pipeline::prepare(&core, PipelineConfig::default(), SEED));
        });
        let draw_ms = time_reps_ms(|| {
            std::hint::black_box(draw());
        });
        let msv_ms = time_reps_ms(|| {
            let kernel = (&pipe.striped_msv, &pipe.msv);
            std::hint::black_box(outcomes_batched(pool, &kernel, &sample, None, 0));
        });
        let vit_ms = time_reps_ms(|| {
            let kernel = (&pipe.striped_vit, &pipe.vit);
            std::hint::black_box(outcomes_batched(pool, &kernel, &sample, None, 0));
        });
        let fwd_ms = time_reps_ms(|| {
            let kernel = (&pipe.striped_fwd, &pipe.profile);
            std::hint::black_box(outcomes_batched(pool, &kernel, &sample, None, 0));
        });
        let mid = CALIBRATION_REPS / 2;
        let parts = draw_ms[mid] + msv_ms[mid] + vit_ms[mid] + fwd_ms[mid];
        let mut prepare: Vec<(&'static str, Json)> = [
            ("total", &total),
            ("sample", &draw_ms),
            ("msv", &msv_ms),
            ("vit", &vit_ms),
            ("fwd", &fwd_ms),
        ]
        .into_iter()
        .map(|(name, ms)| (name, Json::Obj(spread(ms))))
        .collect();
        prepare.push(("other_median_ms", Json::Num(total[mid] - parts)));
        eprintln!(
            "calibration_shape M={m}: prepare {:.1} ms = sample {:.1} + msv {:.1} + vit {:.1} + \
             fwd {:.1} + other {:.1}",
            total[mid],
            draw_ms[mid],
            msv_ms[mid],
            vit_ms[mid],
            fwd_ms[mid],
            total[mid] - parts
        );
        rows.push(Json::Obj(vec![
            ("model_m", Json::Num(m as f64)),
            ("fwd_kernel", Json::Arr(kernel)),
            ("prepare_ms", Json::Obj(prepare)),
        ]));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::Obj(vec![
        ("host_cores", Json::Num(cores as f64)),
        ("workers", Json::Num(ThreadPool::global().threads() as f64)),
        ("backend", Json::Str(Backend::detect().name().into())),
        ("n_seqs", Json::Num(n as f64)),
        ("seq_len", Json::Num(len as f64)),
        ("reps", Json::Num(CALIBRATION_REPS as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Warp specialization on the simulated device: the analytic model's
/// predicted latency-hiding per ring depth against the simulator's
/// measured full/empty-barrier overlap, on the same kernel run (the
/// pipelined MSV kernel on K40 specs, fixed 4-pair geometry so depth
/// sweeps compare identical work streams). `predicted_overlap` is
/// `1 − pipelined/serial` from `pipelined_kernel_time`;
/// `simulated_overlap` is `1 − makespan/serial` from the per-slot ring
/// accounting. Both must grow monotonically with depth.
fn simt_pipelined_rows(trace: &Trace) -> Json {
    use h3w_core::layout::regs_per_thread;
    use h3w_core::{pipelined_layout, MemConfig, MsvWarpKernel, PipelinedMsvKernel, Stage};
    use h3w_simt::{
        occupancy, predict_stage_depths, run_grid_pairs, CostParams, KernelConfig, RingSpec,
    };
    let dev = DeviceSpec::tesla_k40();
    let bg = NullModel::new();
    let core = synthetic_model(70, 99, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let om = MsvProfile::from_profile(&p);
    let mut spec = DbGenSpec::envnr_like().scaled(0.00002);
    spec.homolog_fraction = 0.05;
    let db = generate(&spec, Some(&core), 31);
    let packed = h3w_seqdb::PackedDb::from_db(&db);
    let pairs = 4usize;
    let cfg_at = |stages: usize| {
        let ring = RingSpec::new(stages).expect("2..=8");
        let layout = pipelined_layout(Stage::Msv, om.m, pairs, MemConfig::Shared, &dev, ring);
        let cfg = KernelConfig {
            warps_per_block: 2 * pairs,
            blocks: 2,
            regs_per_thread: regs_per_thread(Stage::Msv),
            smem_per_block: layout.total,
            track_hazards: true,
        };
        (ring, layout, cfg)
    };
    let mut rows = Vec::new();
    for stages in [2usize, 4, 8] {
        let (ring, layout, cfg) = cfg_at(stages);
        let kernel = PipelinedMsvKernel {
            inner: MsvWarpKernel {
                om: &om,
                db: packed.view(),
                mem: MemConfig::Shared,
                layout,
                use_shfl: dev.has_shfl,
                double_buffer: true,
            },
            ring,
            pairs_per_block: pairs,
            sync: true,
        };
        let r = run_grid_pairs(&dev, &cfg, &kernel).expect("simulated launch");
        assert_eq!(r.stats.hazards, 0, "stages={stages}: ring raced");
        let simulated = r.stats.simulated_overlap().expect("ring pipe ran");
        let predicted = predict_stage_depths(
            &dev,
            &CostParams::default(),
            &r.stats,
            |s| occupancy(&dev, &cfg_at(s).2),
            1.0,
            &[stages],
        )[0];
        trace.add(
            "bench/simt_pipelined",
            &format!("d{stages}_ring_syncs"),
            r.stats.ring_syncs,
        );
        rows.push(Json::Obj(vec![
            ("stages", Json::Num(stages as f64)),
            ("occupancy", Json::Num(predicted.occupancy)),
            ("predicted_serial_s", Json::Num(predicted.serial_s)),
            ("predicted_pipelined_s", Json::Num(predicted.pipelined_s)),
            ("predicted_overlap", Json::Num(predicted.predicted_overlap)),
            ("simulated_overlap", Json::Num(simulated)),
            (
                "makespan_slots",
                Json::Num(r.stats.pipe_makespan_slots as f64),
            ),
            ("serial_slots", Json::Num(r.stats.pipe_serial_slots as f64)),
        ]));
        eprintln!(
            "simt_pipelined: {stages} stages — predicted overlap {:.3}, simulated {:.3}",
            predicted.predicted_overlap, simulated
        );
    }
    Json::Obj(vec![
        ("device", Json::Str("tesla_k40".into())),
        ("kernel", Json::Str("pipelined_msv".into())),
        ("pairs_per_block", Json::Num(pairs as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The pool scaling curve: every pool-parallel stage sweep timed on
/// dedicated 1..N-worker pools (best of 3 per point), reported as
/// Gcells/s plus speedup over the one-worker point. N is the configured
/// pool width but at least 4, so the curve always exercises
/// multi-worker dispatch; on narrower hosts the extra workers
/// time-slice and the curve is expected to stay flat (`host_workers`
/// records how many cores were really there).
fn scaling_rows(
    msv: &MsvProfile,
    vit: &VitProfile,
    profile: &Profile,
    db: &SeqDb,
    trace: &Trace,
) -> Json {
    let max_t = configured_threads().max(4);
    let mut counts = vec![1usize];
    while *counts.last().unwrap() < max_t {
        counts.push((counts.last().unwrap() * 2).min(max_t));
    }
    // Forward is ~3 orders denser per residue than the 8-bit filters;
    // a prefix keeps its point near the others' measurement budget.
    let mut fwd_db = db.clone();
    fwd_db.seqs.truncate(200.min(db.len()));

    for &t in &counts {
        let pool = ThreadPool::new(t);
        let best = |mut f: Box<dyn FnMut() -> SweepTiming + '_>| {
            let mut best = f(); // warm-up counts as rep 1
            for _ in 0..2 {
                let timing = f();
                if timing.seconds < best.seconds {
                    best = timing;
                }
            }
            best
        };
        let msv_t = best(Box::new(|| msv_sweep_batched(&pool, msv, db, 0).1));
        let vit_t = best(Box::new(|| vit_sweep(&pool, vit, db).1));
        let fwd_t = best(Box::new(|| fwd_sweep_batched(&pool, profile, &fwd_db, 0).1));
        record_sweep(trace, &format!("bench/scaling/t{t}/msv"), &msv_t);
        record_sweep(trace, &format!("bench/scaling/t{t}/vit"), &vit_t);
        record_sweep(trace, &format!("bench/scaling/t{t}/fwd"), &fwd_t);
    }

    let tel = trace.snapshot().expect("bench trace is on");
    let mut rows = Vec::new();
    for stage in ["msv", "vit", "fwd"] {
        let (s1, c1) = sweep_at(&tel, &format!("bench/scaling/t1/{stage}"));
        let base_cps = c1 / s1;
        for &t in &counts {
            let (s, cells) = sweep_at(&tel, &format!("bench/scaling/t{t}/{stage}"));
            let cps = cells / s;
            rows.push(Json::Obj(vec![
                ("stage", Json::Str(stage.into())),
                ("workers", Json::Num(t as f64)),
                ("cells_per_sec", Json::Num(cps)),
                ("gcells_per_sec", Json::Num(cps / 1e9)),
                ("speedup_vs_1_worker", Json::Num(cps / base_cps)),
            ]));
        }
    }
    Json::Obj(vec![
        ("host_workers", Json::Num(configured_threads() as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The fused multi-profile scan (`hmmscan`): 100 small models
/// (M ≈ 100–400, the pfam_scan regime) against an Env_nr-like slice,
/// three ways — 100 independent `Pipeline::search` sweeps run serially,
/// the unfused model-parallel scan, and the fused scan whose stage-1
/// sweep interleaves model packs so one database traversal feeds every
/// resident model. All three arms score with the same pipelines built
/// once by `prepare_scan` (the resident-server shape), so Gumbel
/// calibration — ~60 ms/model, which would otherwise dwarf the sweeps on
/// this workload — is excluded from every timed region and reported as
/// its own row. The fused path must beat the independent sweeps by ≥ 2×
/// aggregate residues/sec on ≥ 4 cores (the `multiscan` CI bar); hit
/// equivalence across all three arms is asserted here, not just in the
/// test suite.
fn multi_model_rows(trace: &Trace) -> Json {
    use h3w_pipeline::{prepare_scan, scan_prepared};
    const N_MODELS: usize = 100;
    const SEED: u64 = 0xbeef;
    let models: Vec<_> = (0..N_MODELS)
        .map(|i| {
            synthetic_model(
                100 + (i % 16) * 20,
                9_000 + i as u64,
                &BuildParams::default(),
            )
        })
        .collect();
    let mut spec = DbGenSpec::envnr_like().scaled(5e-5);
    spec.homolog_fraction = 0.02;
    let db = generate(&spec, Some(&models[0]), 77);
    let config = PipelineConfig::default();
    let aggregate = (N_MODELS as u64 * db.total_residues()) as f64;
    // The fused/unfused comparison is recorded at ≥ 4 scan workers: the
    // fused pack interleave is a multi-core optimization (below 4
    // workers the scan auto-degenerates to single-model packs — see
    // `h3w_cpu::fused_pack_width` — precisely so it never loses there),
    // so the headline speedup must be measured in the regime where
    // packing is actually engaged. On narrower hosts the extra workers
    // time-slice; `host_cores` records how many were really there.
    let scan_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4);
    let scan_config = PipelineConfig {
        threads: scan_workers,
        ..config
    };

    let t_prep = Instant::now();
    let pipes: Vec<Pipeline> = prepare_scan(&models, config, SEED);
    let prepare_s = t_prep.elapsed().as_secs_f64();
    let off = Trace::off();
    let fused_res = scan_prepared(&pipes, &db, scan_config, true, &off).unwrap();
    let unfused_res = scan_prepared(&pipes, &db, scan_config, false, &off).unwrap();
    for ((f, u), pipe) in fused_res.iter().zip(&unfused_res).zip(&pipes) {
        let ind = pipe.search(&db, &ExecPlan::Cpu).expect("cpu sweep");
        assert_eq!(
            f.hits, u.hits,
            "fused vs unfused hits diverge: {}",
            f.family
        );
        assert_eq!(
            f.hits, ind.hits,
            "fused vs independent hits diverge: {}",
            f.family
        );
    }

    let ind_s = time_best(|| {
        for pipe in &pipes {
            std::hint::black_box(pipe.search(&db, &ExecPlan::Cpu).expect("cpu sweep"));
        }
    });
    let fused_s = time_best(|| {
        std::hint::black_box(scan_prepared(&pipes, &db, scan_config, true, &off).unwrap());
    });
    let unfused_s = time_best(|| {
        std::hint::black_box(scan_prepared(&pipes, &db, scan_config, false, &off).unwrap());
    });
    for (name, s) in [
        ("independent", ind_s),
        ("fused", fused_s),
        ("unfused", unfused_s),
    ] {
        trace.add_secs(&format!("bench/multi_model/{name}"), s);
        trace.add(
            &format!("bench/multi_model/{name}"),
            "aggregate_residues",
            aggregate as u64,
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "multi_model: fused {:.3}s vs independent {:.3}s ({:.2}x), unfused scan {:.3}s \
         [prepare {:.3}s excluded; {} cores, scans at {} workers]",
        fused_s,
        ind_s,
        ind_s / fused_s,
        unfused_s,
        prepare_s,
        cores,
        scan_workers
    );
    Json::Obj(vec![
        ("n_models", Json::Num(N_MODELS as f64)),
        ("model_m_min", Json::Num(100.0)),
        ("model_m_max", Json::Num(400.0)),
        ("n_seqs", Json::Num(db.len() as f64)),
        ("db_residues", Json::Num(db.total_residues() as f64)),
        ("aggregate_residues", Json::Num(aggregate)),
        ("host_cores", Json::Num(cores as f64)),
        ("scan_workers", Json::Num(scan_workers as f64)),
        ("prepare_time_s", Json::Num(prepare_s)),
        ("independent_time_s", Json::Num(ind_s)),
        ("independent_residues_per_sec", Json::Num(aggregate / ind_s)),
        ("unfused_scan_time_s", Json::Num(unfused_s)),
        ("unfused_residues_per_sec", Json::Num(aggregate / unfused_s)),
        ("fused_scan_time_s", Json::Num(fused_s)),
        ("fused_residues_per_sec", Json::Num(aggregate / fused_s)),
        ("fused_speedup_vs_independent", Json::Num(ind_s / fused_s)),
        (
            "fused_speedup_vs_unfused_scan",
            Json::Num(unfused_s / fused_s),
        ),
        ("hits_identical", Json::Bool(true)),
    ])
}

/// Stage rows read from a traced run's telemetry: the stage order comes
/// from `StageStats` (which names the `pipeline/<stage>` nodes), but
/// every number in the row is the telemetry node's.
fn stage_rows(tel: &Telemetry, stages: &[StageStats]) -> Json {
    Json::Arr(
        stages
            .iter()
            .map(|s| {
                let node = tel
                    .at_path(&format!("pipeline/{}", s.name))
                    .unwrap_or_else(|| panic!("no telemetry for stage {}", s.name));
                let residues = node.counter("residues_in") as f64;
                let rps = if node.seconds > 0.0 {
                    residues / node.seconds
                } else {
                    f64::NAN
                };
                Json::Obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("seqs_in", Json::Num(node.counter("seqs_in") as f64)),
                    ("seqs_out", Json::Num(node.counter("seqs_out") as f64)),
                    ("residues_in", Json::Num(residues)),
                    ("time_s", Json::Num(node.seconds)),
                    ("residues_per_sec", Json::Num(rps)),
                ])
            })
            .collect(),
    )
}

/// One traced `Pipeline::search`; returns the run's telemetry plus the
/// result (for hit counts and stage naming).
fn traced_search(
    pipe: &Pipeline,
    db: &SeqDb,
    plan: &ExecPlan,
) -> (Telemetry, h3w_pipeline::PipelineResult) {
    let trace = Trace::on();
    let report = pipe.search_traced(db, plan, &trace).expect("search");
    (trace.snapshot().expect("trace is on"), report.result)
}

fn main() {
    let bg = NullModel::new();
    let core = synthetic_model(MODEL_M, 5, &BuildParams::default());
    let profile = Profile::config(&core, &bg);
    let msv = MsvProfile::from_profile(&profile);
    let vit = VitProfile::from_profile(&profile);
    let mut spec = DbGenSpec::envnr_like().scaled(0.0005);
    spec.homolog_fraction = 0.01;
    let db = generate(&spec, Some(&core), 5);
    eprintln!(
        "workload: {} seqs, {} residues, model M={MODEL_M}; detected backend {}",
        db.len(),
        db.total_residues(),
        Backend::detect()
    );

    // All measured loops accumulate into this trace; rows are emitted
    // from its snapshot.
    let trace = Trace::named("throughput_bench");

    // Tight filter loops, every backend.
    let (filters, single_msv_rps) = filter_rows(&msv, &vit, &db, &trace);

    // Batched interleaved kernels (widths × backends) and the
    // batched-over-single MSV speedup per backend.
    let batched = batched_rows(&msv, &db, &single_msv_rps, &trace);

    // Stage-3 Forward loops: striped odds-space vs the generic reference.
    let forward = forward_rows(&profile, &db, &trace);

    // The calibration shape: Forward kernel and `prepare` ledger per M.
    let calibration = calibration_rows();

    // Warp specialization on the simulated device: predicted vs
    // simulated latency-hiding per ring depth.
    let simt_pipelined = simt_pipelined_rows(&trace);

    // Pool scaling curve: every stage sweep at 1..N workers.
    let scaling = scaling_rows(&msv, &vit, &profile, &db, &trace);

    // Fused multi-profile scan vs independent sweeps (hmmscan).
    let multi_model = multi_model_rows(&trace);

    // Full CPU funnel per backend through `Pipeline::search`; best of 3
    // traced runs (by total stage time), rows from that run's telemetry.
    let mut cpu_rows = Vec::new();
    let mut msv_rps = Vec::new(); // (backend, funnel MSV residues/sec)
    let mut vit_rps = Vec::new();
    for backend in Backend::all_available() {
        let pipe = Pipeline::prepare_with_backend(&core, PipelineConfig::default(), 7, backend);
        let (mut tel, mut best) = traced_search(&pipe, &db, &ExecPlan::Cpu);
        for _ in 0..2 {
            let (t, r) = traced_search(&pipe, &db, &ExecPlan::Cpu);
            let total =
                |x: &h3w_pipeline::PipelineResult| x.stages.iter().map(|s| s.time_s).sum::<f64>();
            if total(&r) < total(&best) {
                tel = t;
                best = r;
            }
        }
        msv_rps.push((
            backend,
            best.stages[0].residues_in as f64 / best.stages[0].time_s,
        ));
        vit_rps.push((
            backend,
            best.stages[1].residues_in as f64 / best.stages[1].time_s,
        ));
        cpu_rows.push(Json::Obj(vec![
            ("backend", Json::Str(backend.name().into())),
            ("workers", Json::Num(pipe.pool().threads() as f64)),
            ("hits", Json::Num(best.hits.len() as f64)),
            ("stages", stage_rows(&tel, &best.stages)),
        ]));
    }

    // One modeled-device sweep for reference (detected backend's tables).
    let pipe = Pipeline::prepare(&core, PipelineConfig::default(), 7);
    let (gpu_tel, gpu) = traced_search(
        &pipe,
        &db,
        &ExecPlan::Device {
            dev: DeviceSpec::tesla_k40(),
        },
    );

    let speedup = |rows: &[(Backend, f64)]| -> Vec<Json> {
        let scalar = rows
            .iter()
            .find(|(b, _)| *b == Backend::Scalar)
            .map(|&(_, r)| r)
            .unwrap_or(f64::NAN);
        rows.iter()
            .map(|&(b, r)| {
                Json::Obj(vec![
                    ("backend", Json::Str(b.name().into())),
                    ("residues_per_sec", Json::Num(r)),
                    ("speedup_vs_scalar", Json::Num(r / scalar)),
                ])
            })
            .collect()
    };

    let doc = Json::Obj(vec![
        (
            "workload",
            Json::Obj(vec![
                ("name", Json::Str("envnr_like(0.0005)".into())),
                ("n_seqs", Json::Num(db.len() as f64)),
                ("residues", Json::Num(db.total_residues() as f64)),
                ("model_m", Json::Num(MODEL_M as f64)),
            ]),
        ),
        (
            "detected_backend",
            Json::Str(Backend::detect().name().into()),
        ),
        ("filter_loops", Json::Arr(filters)),
        ("batched_filter_loops", batched),
        ("forward_loops", forward),
        ("calibration_shape", calibration),
        ("simt_pipelined", simt_pipelined),
        ("scaling_curve", scaling),
        ("multi_model", multi_model),
        ("run_cpu", Json::Arr(cpu_rows)),
        (
            "run_gpu",
            Json::Obj(vec![
                ("device", Json::Str("tesla_k40".into())),
                ("backend_host_side", Json::Str(pipe.backend().name().into())),
                ("workers", Json::Num(pipe.pool().threads() as f64)),
                ("stages", stage_rows(&gpu_tel, &gpu.stages)),
            ]),
        ),
        ("msv_run_cpu", Json::Arr(speedup(&msv_rps))),
        ("vit_run_cpu", Json::Arr(speedup(&vit_rps))),
        (
            "telemetry",
            Json::Raw(trace.snapshot().expect("bench trace is on").to_json()),
        ),
    ]);

    let text = doc.pretty();
    std::fs::write("BENCH_throughput.json", &text).expect("write BENCH_throughput.json");
    println!("{text}");
    for (b, r) in &msv_rps {
        eprintln!("run_cpu MSV {b}: {:.1} Mres/s", r / 1e6);
    }
}
