//! Criterion benches for FASTA ingest and rendering on an Env_nr-shaped
//! text of about 1 Mres: `fasta::parse` (decode and keep every record),
//! `FastaFileSource::scan`, the validating pass a checkpointed
//! `hmmsearch --chunk` pays to pin its scale (read the file from the page
//! cache, decode, count, content-hash, keep nothing) and `fasta::render`. The
//! rate printed is residues per second (Melem/s = Mres/s). The CI smoke
//! run (`cargo test -p h3w-seqdb --bench fasta`) executes each once; real
//! numbers come from `cargo bench -p h3w-seqdb --bench fasta`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use h3w_seqdb::{fasta, generate, DbGenSpec, FastaFileSource, SeqSource};

fn bench_fasta(c: &mut Criterion) {
    let mut spec = DbGenSpec::envnr_like().scaled(7.75e-4);
    spec.homolog_fraction = 0.0;
    let db = generate(&spec, None, 17);
    let text = fasta::render(&db);
    let dir = std::env::temp_dir().join(format!("h3w-bench-fasta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("envnr.fa");
    std::fs::write(&path, &text).expect("write FASTA");

    let mut g = c.benchmark_group("fasta");
    g.throughput(Throughput::Elements(db.total_residues()));
    g.bench_function("parse", |b| {
        b.iter(|| fasta::parse("bench", std::hint::black_box(&text)).expect("rendered text parses"))
    });
    g.bench_function("scan", |b| {
        b.iter(|| {
            let source = FastaFileSource::open(std::hint::black_box(&path)).expect("open");
            source.scan().expect("rendered text scans");
            source.identity()
        })
    });
    g.bench_function("render", |b| {
        b.iter(|| fasta::render(std::hint::black_box(&db)))
    });
    g.finish();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

criterion_group!(benches, bench_fasta);
criterion_main!(benches);
