//! Family scan: build models from alignments, then scan a database with
//! the whole family set (hmmscan-style) — the end-to-end workflow a
//! downstream user runs.
//!
//! ```sh
//! cargo run --release --example family_scan
//! ```

use hmmer3_warp::hmm::msa::{build_from_msa, Msa, MsaBuildParams};
use hmmer3_warp::pipeline::{best_hits_per_target, scan, Trace};
use hmmer3_warp::prelude::*;
use hmmer3_warp::seqdb::gen::sample_homolog;
use hmmer3_warp::seqdb::DigitalSeq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fabricate a small alignment around a conserved pattern (stand-in for a
/// curated seed alignment).
fn fake_alignment(rng: &mut StdRng, cols: usize, rows: usize) -> String {
    use hmmer3_warp::hmm::alphabet::symbol;
    let pattern: Vec<u8> = (0..cols).map(|_| rng.gen_range(0u8..20)).collect();
    let mut text = String::new();
    for r in 0..rows {
        text.push_str(&format!(">row{r}\n"));
        for &p in &pattern {
            let c = if rng.gen::<f32>() < 0.07 {
                '-'
            } else if rng.gen::<f32>() < 0.12 {
                symbol(rng.gen_range(0u8..20)).unwrap()
            } else {
                symbol(p).unwrap()
            };
            text.push(c);
        }
        text.push('\n');
    }
    text
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    // 1. Build three families from (fabricated) seed alignments.
    let mut families = Vec::new();
    for (i, cols) in [40usize, 65, 90].into_iter().enumerate() {
        let afa = fake_alignment(&mut rng, cols, 30);
        let msa = Msa::parse_afa(&afa).expect("valid alignment");
        let mut model =
            build_from_msa(&msa, &format!("FAM{i:03}"), &MsaBuildParams::default()).unwrap();
        model.name = format!("FAM{i:03}");
        println!(
            "built {}: {} match columns from {} rows",
            model.name,
            model.len(),
            msa.n_rows()
        );
        families.push(model);
    }

    // 2. A target database seeded with homologs of families 0 and 2.
    let mut db = generate(&DbGenSpec::envnr_like().scaled(2e-4), None, 7);
    for (tag, fam) in [(0usize, &families[0]), (2, &families[2])] {
        for j in 0..8 {
            db.seqs.push(DigitalSeq {
                name: format!("planted_f{tag}_{j}"),
                desc: String::new(),
                residues: sample_homolog(&mut rng, fam, 30),
            });
        }
    }
    println!(
        "database: {} sequences / {} residues (16 planted homologs)",
        db.len(),
        db.total_residues()
    );

    // 3. Scan.
    let results = scan(&families, &db, PipelineConfig::default(), 99, &Trace::off())
        .expect("cpu scan succeeds")
        .results;
    println!();
    for fr in &results {
        println!(
            "{} (M={}): MSV pass {}, Viterbi pass {}, hits {}",
            fr.family,
            fr.m,
            fr.passed.0,
            fr.passed.1,
            fr.hits.len()
        );
    }

    // 4. Per-target view.
    println!();
    println!("per-target assignments:");
    for (seqid, matches) in best_hits_per_target(&results).iter().take(12) {
        let name = &db.seqs[*seqid as usize].name;
        let m = &matches[0];
        println!(
            "  {:<18} → {} (fwd {:.1} nats, E = {:.2e}{})",
            name,
            m.family,
            m.score,
            m.evalue,
            if matches.len() > 1 {
                format!(", +{} weaker", matches.len() - 1)
            } else {
                String::new()
            }
        );
    }
}
