//! Criterion benches for the striped odds-space Forward filter — the
//! stage-3 kernel — against the generic log-space reference, per backend
//! and per batch width, plus the calibration shape (500 background
//! sequences of L = 100, what every `Pipeline::prepare` scores), whose
//! short rows of O(1) odds are where the D→D increments run into the
//! subnormal range. The CI smoke run (`cargo test --benches`)
//! executes each once to keep the harness honest; real numbers come from
//! `cargo bench -p h3w-bench --bench fwd` (the calibration shape runs
//! both ends of the library, M = 48 and 2405) and, end to end, from
//! `h3w-benchmark` (`crates/benchmark/README.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use h3w_cpu::reference::forward_generic;
use h3w_cpu::{Backend, FwdBatchWorkspace, FwdWorkspace, StripedFwd, MAX_BATCH};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate::{self, random_seq};
use h3w_hmm::profile::Profile;
use h3w_hmm::NullModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEQ_LEN: usize = 400;
const MODEL_M: usize = 400;

fn setup() -> (Profile, Vec<Vec<u8>>) {
    let bg = NullModel::new();
    let core = synthetic_model(MODEL_M, 7, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let mut rng = StdRng::seed_from_u64(13);
    let seqs = (0..MAX_BATCH)
        .map(|_| random_seq(&mut rng, SEQ_LEN))
        .collect();
    (p, seqs)
}

fn bench_forward_kernels(c: &mut Criterion) {
    let (p, seqs) = setup();
    let mut g = c.benchmark_group("forward");
    // One sequence: every backend's striped kernel vs the reference.
    g.throughput(Throughput::Elements((3 * MODEL_M * SEQ_LEN) as u64));
    for backend in Backend::all_available() {
        let f = StripedFwd::with_backend(&p, backend);
        g.bench_with_input(
            BenchmarkId::new("striped", backend.name()),
            &backend,
            |b, _| {
                let mut ws = FwdWorkspace::default();
                b.iter(|| std::hint::black_box(f.run_into(&p, &seqs[0], &mut ws)))
            },
        );
    }
    g.bench_function("generic_reference", |b| {
        b.iter(|| std::hint::black_box(forward_generic(&p, &seqs[0])))
    });
    g.finish();

    // Batched survivor rescoring on the detected backend.
    let f = StripedFwd::new(&p);
    let mut g = c.benchmark_group("forward_batched");
    for width in [1usize, 2, 4] {
        let refs: Vec<&[u8]> = seqs[..width].iter().map(|s| s.as_slice()).collect();
        g.throughput(Throughput::Elements((3 * MODEL_M * SEQ_LEN * width) as u64));
        g.bench_with_input(BenchmarkId::new("interleaved", width), &width, |b, _| {
            let mut ws = FwdBatchWorkspace::default();
            let mut out = vec![0.0f32; width];
            b.iter(|| f.run_batch_into(&p, &refs, &mut ws, &mut out))
        });
    }
    g.finish();

    // Calibration shape, per backend: the input the long / homolog-rich
    // arms above never produce.
    let bg = NullModel::new();
    let sample = calibrate::sample(17, calibrate::DEFAULT_N, calibrate::DEFAULT_LEN);
    let mut g = c.benchmark_group("forward_calibration_shape");
    for m in [48usize, 100, 400, 800, 2405] {
        let p = Profile::config(&synthetic_model(m, 7, &BuildParams::default()), &bg);
        let cells = 3 * m * calibrate::DEFAULT_LEN * sample.len();
        g.throughput(Throughput::Elements(cells as u64));
        for backend in Backend::all_available() {
            let f = StripedFwd::with_backend(&p, backend);
            let id = BenchmarkId::new(backend.name(), format!("m{m}"));
            g.bench_with_input(id, &m, |b, _| {
                let mut ws = FwdWorkspace::default();
                b.iter(|| {
                    sample
                        .iter()
                        .map(|s| f.run_into(&p, s, &mut ws))
                        .sum::<f32>()
                })
            });
            // The same rows four at a time: what calibration runs, and
            // where the D→D chains of a batch resolve in lockstep.
            let id = BenchmarkId::new(format!("{}_x{MAX_BATCH}", backend.name()), format!("m{m}"));
            g.bench_with_input(id, &m, |b, _| {
                let mut ws = FwdBatchWorkspace::default();
                let mut out = [0.0f32; MAX_BATCH];
                b.iter(|| {
                    for batch in sample.chunks(MAX_BATCH) {
                        let refs: [&[u8]; MAX_BATCH] = core::array::from_fn(|i| &batch[i][..]);
                        f.run_batch_into(&p, &refs, &mut ws, &mut out);
                    }
                    out
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_forward_kernels);
criterion_main!(benches);
