//! Criterion benches for the batched interleaved MSV kernel — the one
//! MSV row loop — at width 1 (one sequence, what `StripedMsv::run_into`
//! runs) against widths 2–4 on the same sequences. The CI smoke run
//! (`cargo test --benches`) executes each once to keep the harness honest;
//! real numbers come from `cargo bench -p h3w-bench --bench batch` and,
//! end to end, from `h3w-benchmark` (`crates/benchmark/README.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::{BatchWorkspace, MsvOutcome, MAX_BATCH};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::NullModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEQ_LEN: usize = 400;
const MODEL_M: usize = 400;

fn setup() -> (MsvProfile, Vec<Vec<u8>>) {
    let bg = NullModel::new();
    let core = synthetic_model(MODEL_M, 7, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let mut rng = StdRng::seed_from_u64(11);
    let seqs = (0..MAX_BATCH)
        .map(|_| random_seq(&mut rng, SEQ_LEN))
        .collect();
    (MsvProfile::from_profile(&p), seqs)
}

fn bench_batched_msv(c: &mut Criterion) {
    let (om, seqs) = setup();
    let striped = StripedMsv::new(&om);
    let mut g = c.benchmark_group("batched_msv");
    for width in [1usize, 2, 3, 4] {
        let refs: Vec<&[u8]> = seqs[..width].iter().map(|s| s.as_slice()).collect();
        g.throughput(Throughput::Elements((MODEL_M * SEQ_LEN * width) as u64));
        g.bench_with_input(BenchmarkId::new("interleaved", width), &width, |b, _| {
            let mut ws = BatchWorkspace::default();
            let mut out = vec![
                MsvOutcome {
                    xj: 0,
                    overflow: false,
                    score: 0.0
                };
                width
            ];
            b.iter(|| striped.run_batch_into(&om, &refs, &mut ws, &mut out))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batched_msv);
criterion_main!(benches);
