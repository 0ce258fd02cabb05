//! Generated databases pinned by content hash.
//!
//! Every workload's inputs, figure bins and the paper-scale Env_nr run
//! start from these generators, so a faster generator must draw the same
//! bytes. The hashes were recorded with the sequential subtract-and-
//! compare scan as the only residue sampler. The model cases cover
//! homolog flanks and the per-node emissions of the traversal.

use h3w_hmm::build::{synthetic_model, BuildParams};
use h3w_seqdb::{content_hash, gen_chunks, generate, ContentHasher, DbGenSpec};

/// `(preset, scale, homolog fraction, seed, content hash)`; the
/// homologous cases embed a 120-column synthetic model.
const PINNED: [(&str, f64, f64, u64, u64); 4] = [
    ("swissprot", 0.0005, 0.0, 1, 0xe839_d79f_dba3_6223),
    ("envnr", 0.00005, 0.0, 3, 0xeb68_9224_41c5_823c),
    ("swissprot", 0.0002, 0.2, 1, 0xacef_0fa4_80d5_9442),
    ("envnr", 0.00003, 0.2, 3, 0x0786_dd62_5a55_e361),
];

#[test]
fn generated_databases_are_pinned() {
    let model = synthetic_model(120, 7, &BuildParams::default());
    for (preset, scale, homolog_fraction, seed, pinned) in PINNED {
        let mut spec = match preset {
            "swissprot" => DbGenSpec::swissprot_like(),
            _ => DbGenSpec::envnr_like(),
        }
        .scaled(scale);
        spec.homolog_fraction = homolog_fraction;
        let model = (homolog_fraction > 0.0).then_some(&model);
        let db = generate(&spec, model, seed);
        let hash = content_hash(&db);
        assert_eq!(hash, pinned, "{} seed {seed}: {hash:#018x}", spec.name);

        // The chunked stream is the same database.
        let mut h = ContentHasher::new(&spec.name);
        for chunk in gen_chunks(&spec, model, seed, 10_000) {
            for s in &chunk.seqs {
                h.push_seq(&s.name, &s.desc, &s.residues);
            }
        }
        assert_eq!(h.finish(), pinned, "{} seed {seed} chunked", spec.name);
    }
}
