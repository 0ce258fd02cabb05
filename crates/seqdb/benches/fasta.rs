//! Criterion benches for FASTA ingest and rendering on an Env_nr-shaped
//! text of about 1 Mres: `fasta::parse` (decode and keep every record),
//! the validating scan behind `FastaSource::new` / `FastaFileSource::open`
//! (decode, count, content-hash, keep nothing) and `fasta::render`. The
//! rate printed is residues per second (Melem/s = Mres/s). The CI smoke
//! run (`cargo test -p h3w-seqdb --bench fasta`) executes each once; real
//! numbers come from `cargo bench -p h3w-seqdb --bench fasta`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use h3w_seqdb::{fasta, generate, DbGenSpec, FastaSource, SeqSource};

fn bench_fasta(c: &mut Criterion) {
    let mut spec = DbGenSpec::envnr_like().scaled(7.75e-4);
    spec.homolog_fraction = 0.0;
    let db = generate(&spec, None, 17);
    let text = fasta::render(&db);

    let mut g = c.benchmark_group("fasta");
    g.throughput(Throughput::Elements(db.total_residues()));
    g.bench_function("parse", |b| {
        b.iter(|| fasta::parse("bench", std::hint::black_box(&text)).expect("rendered text parses"))
    });
    g.bench_function("scan", |b| {
        b.iter(|| {
            FastaSource::new("bench", std::hint::black_box(&text))
                .expect("rendered text scans")
                .identity()
        })
    });
    g.bench_function("render", |b| {
        b.iter(|| fasta::render(std::hint::black_box(&db)))
    });
    g.finish();
}

criterion_group!(benches, bench_fasta);
criterion_main!(benches);
