//! Criterion benches for the CPU baseline filters — the real (wall-clock)
//! performance of this crate's HMMER3 reimplementation, and the
//! calibration evidence behind `h3w_bench::CpuModel` (throughput in
//! cells/s is printed by the `reproduce E9`/EXPERIMENTS flow; here we track
//! per-sequence latency across model sizes). Striped MSV here is the
//! batched kernel at width 1; striped Viterbi is the one lane-generic row
//! loop on the detected backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use h3w_cpu::quantized::{msv_filter_scalar, vit_filter_scalar};
use h3w_cpu::striped_msv::StripedMsv;
use h3w_cpu::striped_vit::{StripedVit, VitWorkspace};
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEQ_LEN: usize = 400;

fn setup(m: usize) -> (MsvProfile, VitProfile, Vec<u8>) {
    let bg = NullModel::new();
    let core = synthetic_model(m, 7, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let mut rng = StdRng::seed_from_u64(11);
    (
        MsvProfile::from_profile(&p),
        VitProfile::from_profile(&p),
        random_seq(&mut rng, SEQ_LEN),
    )
}

fn bench_msv(c: &mut Criterion) {
    let mut g = c.benchmark_group("msv_filter");
    for m in [48usize, 200, 800] {
        let (om, _, seq) = setup(m);
        let striped = StripedMsv::new(&om);
        g.throughput(Throughput::Elements((m * SEQ_LEN) as u64));
        g.bench_with_input(BenchmarkId::new("striped", m), &m, |b, _| {
            let mut dp = Vec::new();
            b.iter(|| striped.run_into(&om, &seq, &mut dp))
        });
        g.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| msv_filter_scalar(&om, &seq))
        });
    }
    g.finish();
}

fn bench_vit(c: &mut Criterion) {
    let mut g = c.benchmark_group("vit_filter");
    for m in [48usize, 200, 800] {
        let (_, om, seq) = setup(m);
        let striped = StripedVit::new(&om);
        g.throughput(Throughput::Elements((m * SEQ_LEN) as u64));
        g.bench_with_input(BenchmarkId::new("striped_lazyf", m), &m, |b, _| {
            let mut ws = VitWorkspace::default();
            b.iter(|| striped.run_into(&om, &seq, &mut ws))
        });
        g.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| vit_filter_scalar(&om, &seq))
        });
    }
    g.finish();
}

fn bench_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("forward");
    let bg = NullModel::new();
    let core = synthetic_model(200, 7, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let mut rng = StdRng::seed_from_u64(12);
    let seq = random_seq(&mut rng, SEQ_LEN);
    g.throughput(Throughput::Elements((200 * SEQ_LEN) as u64));
    g.bench_function("table_logsum", |b| {
        b.iter(|| h3w_cpu::reference::forward_generic(&p, &seq))
    });
    g.finish();
}

criterion_group!(benches, bench_msv, bench_vit, bench_forward);
criterion_main!(benches);
