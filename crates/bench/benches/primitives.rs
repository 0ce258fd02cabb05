//! Criterion benches for the fine-grained primitives the paper's
//! optimizations are built from: residue packing (Fig. 6), the butterfly
//! reduction (§III-A), and the two D→D resolutions (§III-B vs [13]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use h3w_core::dd_prefix::{lazy_f_resolve, prefix_resolve};
use h3w_hmm::calibrate::random_seq;
use h3w_hmm::vitprofile::W_NEG_INF;
use h3w_seqdb::pack::{pack_seq, PackedDb};
use h3w_seqdb::{DigitalSeq, SeqDb};
use h3w_simt::{DeviceSpec, Lanes, SimtCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_packing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let seq = random_seq(&mut rng, 6000);
    let mut g = c.benchmark_group("residue_packing");
    g.throughput(Throughput::Elements(6000));
    g.bench_function("pack_6per_word", |b| b.iter(|| pack_seq(&seq)));
    let mut db = SeqDb::new("bench");
    db.seqs.push(DigitalSeq {
        name: "s".into(),
        desc: String::new(),
        residues: seq.clone(),
    });
    let packed = PackedDb::from_db(&db);
    g.bench_function("unpack_iter", |b| {
        b.iter(|| packed.iter_seq(0).map(|r| r as u64).sum::<u64>())
    });
    g.finish();
}

fn bench_reduction(c: &mut Criterion) {
    let v: Lanes<i16> = Lanes::from_fn(|i| (i as i16 * 37) % 127 - 60);
    let mut ctx = SimtCtx::new(&DeviceSpec::tesla_k40(), 0, false);
    let mut g = c.benchmark_group("warp_reduction");
    g.bench_function("butterfly_max_i16", |b| {
        b.iter(|| ctx.warp_reduce(v, usize::MAX, Ord::max))
    });
    g.finish();
}

fn bench_dd(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let m = 512usize;
    let seeds: Vec<i16> = (0..m)
        .map(|i| {
            if i % 24 == 3 {
                rng.gen_range(-1000..0)
            } else {
                rng.gen_range(-9000..-8500)
            }
        })
        .collect();
    let mut tdd: Vec<i16> = (0..m).map(|_| rng.gen_range(-700..-400)).collect();
    tdd[0] = W_NEG_INF;
    let mut g = c.benchmark_group("dd_resolution");
    g.throughput(Throughput::Elements(m as u64));
    g.bench_with_input(BenchmarkId::new("lazy_f", m), &m, |b, _| {
        b.iter(|| lazy_f_resolve(&seeds, &tdd))
    });
    g.bench_with_input(BenchmarkId::new("prefix_scan", m), &m, |b, _| {
        b.iter(|| prefix_resolve(&seeds, &tdd))
    });
    g.finish();
}

criterion_group!(benches, bench_packing, bench_reduction, bench_dd);
criterion_main!(benches);
