//! Criterion benches for the packed on-disk database (`.h3wdb`) on about
//! 1 Mres of Swissprot-shaped (long) and of Env_nr-shaped (short)
//! sequences: `DiskDb::from_bytes` (validate and keep the packed image),
//! `DiskDb::load` (read + validate, file in the page cache),
//! `load_to_seqdb` (load, then decode into a `SeqDb`, the path `hmmsearch`
//! takes on a `.h3wdb`), `DiskDbWriter` push + finish, and the two bare
//! checksums the format is sealed with, over the same file bytes. The
//! `residues` groups print Melem/s = Mres/s, the `bytes` groups MB/s of
//! file. The CI smoke run (`cargo test -p h3w-seqdb --bench diskdb`)
//! executes each once; real numbers come from
//! `cargo bench -p h3w-seqdb --bench diskdb`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use h3w_seqdb::diskdb::{crc32, fnv1a};
use h3w_seqdb::{generate, DbGenSpec, DiskDb, DiskDbWriter};
use std::hint::black_box;

fn bench_shape(c: &mut Criterion, shape: &str, base: DbGenSpec) {
    let mut spec = base.scaled(1e6 / base.expected_residues() as f64);
    spec.homolog_fraction = 0.0;
    let db = generate(&spec, None, 17);
    let dir = std::env::temp_dir().join(format!("h3w-bench-diskdb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{shape}.h3wdb"));
    let mut w = DiskDbWriter::create(&path, &db.name).expect("create");
    for s in &db.seqs {
        w.push(s).expect("push");
    }
    w.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read image");

    let mut g = c.benchmark_group(format!("diskdb/{shape}/residues"));
    g.throughput(Throughput::Elements(db.total_residues()));
    g.bench_function("from_bytes", |b| {
        b.iter(|| DiskDb::from_bytes(black_box(&bytes)).expect("valid"))
    });
    g.bench_function("load", |b| {
        b.iter(|| DiskDb::load(black_box(&path)).expect("valid"))
    });
    g.bench_function("load_to_seqdb", |b| {
        b.iter(|| DiskDb::load(black_box(&path)).expect("valid").to_seqdb())
    });
    g.bench_function("writer", |b| {
        let out = dir.join(format!("{shape}.written.h3wdb"));
        b.iter(|| {
            let mut w = DiskDbWriter::create(&out, &db.name).expect("create");
            for s in &db.seqs {
                w.push(s).expect("push");
            }
            w.finish().expect("finish")
        })
    });
    g.finish();

    let mut g = c.benchmark_group(format!("diskdb/{shape}/bytes"));
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("from_bytes", |b| {
        b.iter(|| DiskDb::from_bytes(black_box(&bytes)).expect("valid"))
    });
    g.bench_function("crc32", |b| b.iter(|| crc32(black_box(&bytes))));
    g.bench_function("fnv1a", |b| b.iter(|| fnv1a(black_box(&bytes))));
    g.finish();

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

fn bench_diskdb(c: &mut Criterion) {
    bench_shape(c, "swissprot", DbGenSpec::swissprot_like());
    bench_shape(c, "envnr", DbGenSpec::envnr_like());
}

criterion_group!(benches, bench_diskdb);
criterion_main!(benches);
