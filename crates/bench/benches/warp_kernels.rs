//! Criterion benches for the simulated warp kernels — the cost of
//! *functional simulation* itself (how fast this crate executes a
//! warp-synchronous kernel on the host), per figure-point workload unit.
//! Modeled device time comes from the analytic path, not from these
//! numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use h3w_core::tiered::{run_msv_device, run_vit_device};
use h3w_core::MemConfig;
use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_hmm::msvprofile::MsvProfile;
use h3w_hmm::profile::Profile;
use h3w_hmm::vitprofile::VitProfile;
use h3w_hmm::NullModel;
use h3w_seqdb::gen::{generate, DbGenSpec};
use h3w_seqdb::PackedDb;
use h3w_simt::DeviceSpec;

fn setup(m: usize) -> (MsvProfile, VitProfile, PackedDb, u64) {
    let bg = NullModel::new();
    let core = synthetic_model(m, 3, &BuildParams::default());
    let p = Profile::config(&core, &bg);
    let db = generate(&DbGenSpec::envnr_like().scaled(2e-6), Some(&core), 4); // ~13 seqs
    let packed = PackedDb::from_db(&db);
    let cells = m as u64 * packed.total_residues();
    (
        MsvProfile::from_profile(&p),
        VitProfile::from_profile(&p),
        packed,
        cells,
    )
}

fn bench_msv_kernel(c: &mut Criterion) {
    let dev = DeviceSpec::tesla_k40();
    let mut g = c.benchmark_group("sim_msv_kernel");
    g.sample_size(10);
    for m in [48usize, 200] {
        let (om, _, packed, cells) = setup(m);
        g.throughput(Throughput::Elements(cells));
        for mem in [MemConfig::Shared, MemConfig::Global] {
            g.bench_with_input(BenchmarkId::new(format!("{mem:?}"), m), &m, |b, _| {
                b.iter(|| run_msv_device(&om, &packed, &dev, Some(mem)).unwrap())
            });
        }
    }
    g.finish();
}

fn bench_vit_kernel(c: &mut Criterion) {
    let dev = DeviceSpec::tesla_k40();
    let mut g = c.benchmark_group("sim_vit_kernel");
    g.sample_size(10);
    for m in [48usize, 200] {
        let (_, om, packed, cells) = setup(m);
        g.throughput(Throughput::Elements(cells));
        g.bench_with_input(BenchmarkId::new("Shared", m), &m, |b, _| {
            b.iter(|| run_vit_device(&om, &packed, &dev, Some(MemConfig::Shared)).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_msv_kernel, bench_vit_kernel);
criterion_main!(benches);
